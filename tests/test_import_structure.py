"""The package's import structure.

algs is the bottom of the package: every algorithm family, composite
included, is a backend in its table, so it imports only the codec, the OID
table, SLH-DSA and the errors. x509 reads and verifies every certificate
shape, the delta inside a paired base included, so it needs none of the
issuing modules above it; catalyst, composite and chameleon re-export its
readers. x509 also signs every shape, so cli issues through
x509.sign_certificate and imports no catalyst; catalyst.issue_catalyst
calls it but stays a function of its own, since a tracer that wraps both by
identity needs two objects. cli only prints: pem.read_block reads its
PEM-or-DER inputs, x509.read_document picks certificate or request, and
x509.verify_issued gives the whole verdict, the issuer's alternative key
and the delta included, so cli touches no PEM armor, Catalyst triple or
delta reader, and no error those raise. Every signature verdict in x509
comes from one check, the only caller of algs.verify there. render_text,
which pqcli view prints, calls no DER decoder itself: it prints what the
readers return, the Catalyst triple from the same reader verify uses. The package
itself re-exports nothing, so pqcli/__init__.py imports no package module
and each name has one import path. No module imports inside a function,
and the package-internal imports form no cycle. The OID table is process
state that algs.use_registry replaces, so no function takes it as a
parameter. oids.SIGNATURE_ALGORITHMS is the one catalogue of signature
algorithms, so algs names none of their OID constants. Each family's class
holds its own spec names and parameter rule, so algs._parse_single looks a
name up once and names no family or spelling itself. RFC 5280's one
extension of each type is checked in one function of x509, which the
TbsCertificate constructor, the extension-list reader and build_csr call;
chameleon leaves it to them. An ObjectIdentifier is a plain tuple of its
arcs and content octets, as a DerValue is a plain tuple: it writes no
equality, hashing or immutability of its own. algs.sign signs with the key
a record loaded once, so it calls no key loader, and a KeyPairRecord always
carries that key. A key file is decoded once, a composite container
included, whose keys are read from that one decode, and so are an RSA
key's privateKey octets, which give both its spec and its key; one
function of algs reads the PKCS#8 version, for every family. A public key,
composite or not, is decoded once per verdict or rendering, by
algs.read_spki, which x509 and cli call in place of material_from_public.
Start-up is most of a CLI call: a frozen dataclass generates and compiles
its methods at import, so only the six classes that need a dataclass
feature are dataclasses and every other value class is a NamedTuple; no
module imports string or secrets for one constant. Importing a module
leaves the cyclic collector as it was, enabled and unfrozen, because tests
import every module in-process. Only __main__.py, run as the main module,
turns the collector off before it imports cli, and only cli.run, the
process entry point, freezes what importing built and turns it back on, so
python -m pqcli runs no collection before the freeze. Every dataclass has
a docstring, since @dataclass computes inspect.signature(cls) at import for
one that lacks it. No pqcli process imports cryptography's serialization
package, as the package's own DER reads and writes key files, and none
loads cryptography's OpenSSL backend, as the ECDSA signature algorithm is
an ec.ECDSA subclass whose __init__ imports nothing."""

import ast
import dataclasses
import importlib
import os
import pathlib
import random
import subprocess
import sys

import pytest

import pqcli
from pqcli import algs, catalyst, chameleon, cli, composite, der, oids, pem, x509
from pqcli.errors import UnknownAlgorithm
from pqcli.names import parse_name

PACKAGE = pathlib.Path(pqcli.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
ALGS_ALLOWED = {"der", "oids", "slhdsa", "errors"}
ABOVE_X509 = {"catalyst", "composite", "chameleon", "cli"}
# each says beside its definition which dataclass feature it needs
DATACLASSES = {"algs.AlgorithmSpec", "algs.KeyPairRecord", "algs.CompositeComponent",
               "algs.CompositeKeyMaterial", "x509.TbsCertificate",
               "x509.CertificateDocument"}


def _tree(module):
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _package_imports(module):
    """Package modules that module imports anywhere in its source."""
    imported = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                imported.add(node.module.split(".")[0])
            else:
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pqcli"):
            imported.add(node.module.partition(".")[2] or "pqcli")
        elif isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[2] or alias.name
                            for alias in node.names if alias.name.startswith("pqcli"))
    return imported


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    lazy = [f"{func.name}: line {node.lineno}"
            for func in ast.walk(_tree(module))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert lazy == []


def test_package_imports_form_no_cycle():
    graph = {m: _package_imports(m) & set(MODULES) for m in MODULES}
    done, active = set(), []

    def visit(module):
        if module in active:
            cycle = active[active.index(module):] + [module]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        active.append(module)
        for imported in sorted(graph[module]):
            visit(imported)
        active.pop()
        done.add(module)

    for module in MODULES:
        visit(module)


def test_x509_imports_no_issuing_module():
    assert _package_imports("x509") & ABOVE_X509 == set()


def test_catalyst_and_composite_reexport_the_x509_readers():
    moved = {catalyst: ("CatalystExtensionTriple", "alt_preimage", "alt_verdict"),
             composite: ("CompositeVerification", "composite_verify",
                         "verify_certificate_signature"),
             chameleon: ("DeltaCertificateDescriptor", "descriptor_from_certificate",
                         "reconstruct_delta")}
    for module, names in moved.items():
        for name in names:
            assert getattr(module, name) is getattr(x509, name), f"{module.__name__}.{name}"
    defined = {node.name for node in _tree("chameleon").body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined == {"CertParams", "issue_paired"}
    assert "chameleon" not in _package_imports("cli")


def test_cli_issues_through_x509_and_catalyst_delegates():
    assert "catalyst" not in _package_imports("cli")
    assert catalyst.issue_catalyst is not x509.sign_certificate


@pytest.mark.parametrize("module", MODULES)
def test_no_function_takes_a_registry(module):
    takers = [f"{func.name}: line {func.lineno}"
              for func in ast.walk(_tree(module))
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for arg in ast.walk(func.args)
              if isinstance(arg, ast.arg) and arg.arg == "registry"]
    assert takers == []


def test_algs_imports_only_its_allowed_package_modules():
    imported = _package_imports("algs")
    assert imported <= ALGS_ALLOWED, imported - ALGS_ALLOWED


def _referenced_names(module):
    """Every name, attribute and imported name the module mentions."""
    referenced = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.alias):
            referenced.add(node.name)
    return referenced


def test_cli_leaves_reading_and_verdicts_to_pem_and_x509():
    decided_elsewhere = {
        "CatalystExtensionTriple", "reconstruct_delta", "descriptor_from_certificate",
        "MalformedAltExtension", "NoDescriptor", "ReconstructionMismatch",
        "decode_pem", "is_pem"}
    assert _referenced_names("cli") & decided_elsewhere == set()
    assert "chameleon" not in _package_imports("cli") | _package_imports("x509")


def test_x509_calls_algs_verify_only_in_the_one_check():
    tree = _tree("x509")

    def verify_calls(node):
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and n.attr == "verify"
                and isinstance(n.value, ast.Name) and n.value.id == "algs"]

    check = [f for f in tree.body
             if isinstance(f, ast.FunctionDef) and f.name == "_check_signature"]
    assert len(check) == 1
    inside = verify_calls(check[0])
    assert len(inside) == 1
    assert verify_calls(tree) == inside


def test_x509_builds_a_verification_report_only_in_the_one_check():
    tree = _tree("x509")

    def report_calls(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "VerificationReport"]

    [check] = [f for f in tree.body
               if isinstance(f, ast.FunctionDef) and f.name == "_check_signature"]
    inside = report_calls(check)
    assert inside
    assert report_calls(tree) == inside


def test_package_init_imports_no_package_module():
    assert _package_imports("__init__") == set()


def test_render_text_decodes_nothing_itself():
    render = [f for f in _tree("x509").body
              if isinstance(f, ast.FunctionDef) and f.name == "render_text"]
    assert len(render) == 1
    names = {n.attr if isinstance(n, ast.Attribute) else n.id
             for n in ast.walk(render[0]) if isinstance(n, (ast.Attribute, ast.Name))}
    decoders = {n for n in names if n.startswith(("decode", "_decode", "from_der", "as_"))}
    assert decoders == set()


def test_algs_names_no_signature_oid_constant():
    catalogue = {value for value, _ in oids.SIGNATURE_ALGORITHMS.values()}
    constants = {name for name, value in vars(oids).items()
                 if isinstance(value, oids.ObjectIdentifier) and value in catalogue}
    assert len(constants) == 12
    assert _referenced_names("algs") & constants == set()


def test_each_family_holds_its_own_spec_names_and_parameter_rule():
    parse = [f for f in _tree("algs").body
             if isinstance(f, ast.FunctionDef) and f.name == "_parse_single"]
    assert len(parse) == 1
    comparisons = [node for node in ast.walk(parse[0])
                   if isinstance(node, (ast.Compare, ast.Match))]
    assert [ast.unparse(node) for node in comparisons
            if any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                   for n in ast.walk(node))] == []
    assert {n.id for n in ast.walk(parse[0])
            if isinstance(n, ast.Name) and n.id.startswith("FAMILY_")} == set()
    owner = {}
    for key, family in algs._FAMILIES.items():
        if key == algs.FAMILY_COMPOSITE:
            continue
        assert {"names", "parameter"} <= set(vars(type(family))), key
        assert family.names and family.names[0] == key
        for name in family.names:
            assert owner.setdefault(name, key) == key, f"{name} belongs to {owner[name]} and {key}"
    with pytest.raises(UnknownAlgorithm):
        algs.parse_alg_spec(algs.FAMILY_COMPOSITE)


def test_one_extension_per_type_is_checked_in_one_function():
    functions = [f for f in ast.walk(_tree("x509")) if isinstance(f, ast.FunctionDef)]

    def mentioning(name):
        return {f.name for f in functions
                if any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(f))}

    assert mentioning("DuplicateExtension") == {"_one_per_type"}
    assert mentioning("_one_per_type") == {"__post_init__", "_decode_extensions", "build_csr"}
    assert "DuplicateExtension" not in _referenced_names("chameleon")


def test_object_identifier_is_a_plain_tuple():
    tree = _tree("oids")
    classes = [c for c in tree.body
               if isinstance(c, ast.ClassDef) and c.name == "ObjectIdentifier"]
    assert len(classes) == 1 and [ast.unparse(b) for b in classes[0].bases] == ["tuple"]
    assert oids.ObjectIdentifier.__slots__ == () and issubclass(oids.ObjectIdentifier, tuple)
    defined = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    assert defined & {"__init__", "__setattr__", "__eq__", "__hash__"} == set()
    assert "object.__setattr__" not in {ast.unparse(n) for n in ast.walk(tree)
                                        if isinstance(n, ast.Attribute)}
    one_per_type = [f for f in _tree("x509").body
                    if isinstance(f, ast.FunctionDef) and f.name == "_one_per_type"]
    assert len(one_per_type) == 1
    read = {n.attr for n in ast.walk(one_per_type[0]) if isinstance(n, ast.Attribute)}
    assert "arcs" not in read


def test_sign_loads_no_key_and_every_record_carries_one():
    tree = _tree("algs")
    sign = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "sign"]
    assert len(sign) == 1
    names = {n.attr if isinstance(n, ast.Attribute) else n.id
             for statement in sign[0].body for n in ast.walk(statement)
             if isinstance(n, (ast.Attribute, ast.Name))}
    assert names & {"keypair_from_private", "load_private_key", "serialization"} == set()
    assert names & {"bytes", "bytearray", "isinstance"} == set()
    key = {f.name: f for f in dataclasses.fields(algs.KeyPairRecord)}["key"]
    assert key.default is dataclasses.MISSING
    assert key.default_factory is dataclasses.MISSING


def _watched_load(monkeypatch, blob):
    """Load blob; return the inputs der.decode was given and, for each read
    of a PKCS#8 version, the function that read it."""
    decode, as_int = der.decode, der.DerValue.as_int
    value = decode(blob)
    container = value.children[0].tag == der.SEQUENCE
    versions = [key.children[0] for key in (value.children if container else (value,))]
    decoded, readers = [], []

    def watched_decode(data):
        decoded.append(bytes(data))
        return value if data == blob else decode(data)  # the values versions holds

    def watched_as_int(self):
        if any(self is version for version in versions):
            caller = sys._getframe(1)
            readers.append(f"{caller.f_globals['__name__']}.{caller.f_code.co_qualname}")
        return as_int(self)

    with monkeypatch.context() as patch:
        patch.setattr(der, "decode", watched_decode)
        patch.setattr(der.DerValue, "as_int", watched_as_int)
        algs.load_private_key(blob)
    return decoded, readers


def test_a_key_file_is_decoded_once_and_one_function_reads_its_version(
        monkeypatch, rsa_key, slh_key, ec_key):
    components = (ec_key.private, slh_key.private)
    rsa_octets = der.decode(rsa_key.private).children[2].as_octets()  # the RSAPrivateKey
    for blob, inside in ((rsa_key.private, ()), (slh_key.private, ()),
                         (der.wrap_sequence(b"".join(components)), components)):
        decoded, readers = _watched_load(monkeypatch, blob)
        assert decoded.count(blob) == 1
        assert set(decoded) & set(inside) == set()
        assert len(set(decoded)) == len(decoded)  # the privateKey octets once, if at all
        if blob == rsa_key.private:
            assert decoded.count(rsa_octets) == 1
        assert readers == ["pqcli.algs._read_key"] * max(1, len(inside))


def test_only_the_kept_classes_are_dataclasses():
    found = set()
    for module in MODULES:
        name = "pqcli" if module == "__init__" else f"pqcli.{module}"
        defined = vars(importlib.import_module(name)).items()
        found.update(f"{module}.{key}" for key, value in defined
                     if isinstance(value, type) and dataclasses.is_dataclass(value)
                     and value.__module__ == name)
    assert found == DATACLASSES


def test_no_module_imports_string_or_secrets():
    imported = {f"{module}: {alias.name}"
                for module in MODULES for node in ast.walk(_tree(module))
                if isinstance(node, ast.Import) for alias in node.names
                if alias.name.partition(".")[0] in ("string", "secrets")}
    imported |= {f"{module}: {node.module}"
                 for module in MODULES for node in ast.walk(_tree(module))
                 if isinstance(node, ast.ImportFrom) and not node.level
                 and node.module.partition(".")[0] in ("string", "secrets")}
    assert imported == set()


def test_importing_every_module_leaves_the_collector_enabled_and_unfrozen():
    names = ["pqcli" if m == "__init__" else f"pqcli.{m}" for m in MODULES]
    assert "pqcli.__main__" in names
    code = ("import gc, importlib\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module(name)\n"
            "print(gc.isenabled(), gc.get_freeze_count())\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["True", "0"]


def test_python_m_pqcli_collects_nothing_before_cli_run_freezes(command_files):
    """Run as __main__, pqcli imports with the collector off; cli.run freezes
    what the imports built and turns the collector back on."""
    code = ("import gc, runpy, sys\n"
            "collections, freeze = [], gc.freeze\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start' and collections.append(info))\n"
            "def watched_freeze():\n"
            "    print(len(collections), gc.isenabled())\n"
            "    freeze()\n"
            "gc.freeze = watched_freeze\n"
            "sys.argv = ['pqcli', 'view', 'rsa.pem']\n"
            "collections.clear()\n"
            "try:\n"
            "    runpy.run_module('pqcli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exit:\n"
            "    print(exit.code, gc.isenabled(), gc.get_freeze_count() > 0)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], cwd=command_files, env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split()[:2] == ["0", "False"]
    assert out.split()[-3:] == ["0", "True", "True"]


@pytest.mark.parametrize("module", MODULES)
def test_every_dataclass_has_a_docstring(module):
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return ast.unparse(target).rpartition(".")[2] == "dataclass"

    bare = [node.name for node in ast.walk(_tree(module))
            if isinstance(node, ast.ClassDef) and ast.get_docstring(node) is None
            and any(map(is_dataclass, node.decorator_list))]
    assert bare == []


SERIALIZATION = "cryptography.hazmat.primitives.serialization"
OPENSSL_BACKEND = "cryptography.hazmat.backends.openssl"


@pytest.fixture(scope="module")
def command_files(tmp_path_factory, rsa_key, ec_key):
    """A self-signed certificate and a key file each for RSA, ECDSA and ML-DSA-65."""
    directory = tmp_path_factory.mktemp("commands")
    ml65 = algs.generate_keypair(algs.parse_alg_spec("ml-dsa:3"), random.Random(7))
    name = parse_name("CN=import guard")
    for label, key in (("rsa", rsa_key), ("ec", ec_key), ("ml", ml65)):
        tbs = x509.build_tbs(name, name, algs.spki_for_key(key), x509.default_validity(1),
                             algs.signature_algorithm_for(key.spec))
        (directory / f"{label}.pem").write_text(x509.sign_certificate(tbs, key).emit_pem())
        (directory / f"{label}.key").write_text(pem.encode_pem(pem.LABEL_PRIVATE_KEY,
                                                               key.private))
    return directory


# each command, and whether it signs or verifies ECDSA, which loads no backend either
@pytest.mark.parametrize("argv, ecdsa", [
    (["view", "rsa.pem"], False),
    (["verify", "rsa.pem"], False),
    (["view", "ml.pem"], False),
    (["verify", "ml.pem"], False),
    (["csr", "-key", "rsa.key", "-subj", "CN=r", "-out", "rsa-req.pem"], False),
    (["csr", "-key", "ml.key", "-subj", "CN=m", "-out", "ml-req.pem"], False),
    (["csr", "-key", "ec.key", "-subj", "CN=e", "-out", "ec-req.pem"], True),
    (["verify", "ec.pem"], True),
    (["cert", "-newkey", "ecdsa", "-out", "new.pem", "-keyout", "new.key"], True),
], ids=lambda value: "-".join(value[:2]) if isinstance(value, list) else None)
def test_only_ecdsa_work_loads_the_openssl_backend(command_files, argv, ecdsa):
    """No command loads the backend, ECDSA work included: the ECDSA signature
    algorithm is a subclass whose __init__ imports nothing."""
    code = ("import sys\n"
            "from pqcli import cli\n"
            f"status = cli.main({argv!r})\n"
            f"print(status, {SERIALIZATION!r} in sys.modules, {OPENSSL_BACKEND!r} in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], cwd=command_files, env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split()[-3:] == ["0", "False", "False"]


@pytest.fixture(scope="module")
def composite_documents(ml3_key, rsa_key, ec_key):
    """A self-signed certificate and a request for ML-DSA-65+RSA-2048 and
    ML-DSA-65+ECDSA."""
    name = parse_name("CN=composite guard")
    documents = []
    for second in (rsa_key, ec_key):
        key = composite.CompositeKeyMaterial(tuple(map(composite.CompositeComponent.of,
                                                       (ml3_key, second))))
        documents.append((composite.issue_composite_certificate(name, key),
                          x509.build_csr(name, key.to_record())))
    return documents


def test_a_public_key_is_decoded_once_per_verdict_or_rendering(
        monkeypatch, capsys, tmp_path, composite_documents):
    decode, decoded = der.decode, []

    def watched_decode(data):
        decoded.append(bytes(data))
        return decode(data)

    def decodes(key_bits, call, *args):
        decoded.clear()
        with monkeypatch.context() as patch:
            patch.setattr(der, "decode", watched_decode)
            call(*args)
        return decoded.count(key_bits)

    for cert, request in composite_documents:
        key_bits = cert.tbs.spki.key_bits
        assert decodes(key_bits, x509.verify_certificate, cert, cert.tbs.spki) == 1
        assert decodes(key_bits, x509.render_text, cert) == 1
        # once, for the verdict, which carries the components it labels
        (tmp_path / "c.pem").write_text(cert.emit_pem())
        assert decodes(key_bits, cli.main, ["verify", str(tmp_path / "c.pem")]) == 1
        assert capsys.readouterr().out.endswith("): valid\n")
        assert decodes(request.spki.key_bits, x509.verify_csr, request) == 1
    # x509 reads every public key; cli labels components from the verdict
    assert "read_spki" in _referenced_names("x509")
    for module in ("x509", "cli"):
        assert "material_from_public" not in _referenced_names(module)
    assert "read_spki" not in _referenced_names("cli")
