import hashlib
import multiprocessing
import os
import random
import threading
import time
import types
from functools import partial

import pytest

from pqcli import algs, cli, pem, slhdsa, x509
from pqcli.errors import KeyMismatch
from pqcli.names import parse_name

# (n, h, d, a, k, sig_size) per FIPS 205 Table 2, SHAKE column
_EXPECTED_SHAPES = {
    "128s": (16, 63, 7, 12, 14, 7856),
    "128f": (16, 66, 22, 6, 33, 17088),
    "192s": (24, 63, 7, 14, 17, 16224),
    "192f": (24, 66, 22, 8, 33, 35664),
    "256s": (32, 64, 8, 14, 22, 29792),
    "256f": (32, 68, 17, 9, 35, 49856),
}

# sha256 of the deterministic signature over b"parameter set shakedown" with
# the key grown from shake_256(name); regression pin for all six sets
_REGRESSION_SIG_DIGESTS = {
    "128s": "1aeca902bdf259cdb3fbf13cb14a189e00c367d2b1757abc1714abd06ce08f1a",
    "128f": "6ddabfcc364651da3cf561d9ac618d239abc6ddf5cce16b7d2b5e5493234594b",
    "192s": "1bb43d2231bfcf2bbbf8f9e20bdf7e993e8e85996f80d268304f35f0e656c97e",
    "192f": "88b4e94321f51212c3d5db609c3ba58265a9405d53549c124f7ed6c6010b2cd3",
    "256s": "c75a04bca79579aa462f93a599b285fb052c82f6ebd681a0bdc2ca633355fbfc",
    "256f": "e8abb650053174d6516062fc09457ab4beeb0e0a9fc20a286a8eb11170dc9630",
}

# public keys grown from the same seeds, so keygen is pinned beyond 128s
_REGRESSION_PUBLIC_KEYS = {
    "192f": ("936a94f7bf59cd5919f93559b9c7475b6133a73310e9ed21"
             "ae35fe0696832d5d30fba0caf20d11fd51e2c3956b82cd24"),
    "256f": ("5ffa13c44b77ba5ed4db4976dd99c21597dd1a5e789d6f195bd5bde029f9aa52"
             "e5a5987b82bfe09f915afdc734459febc49073b2dae60759c3698c63d56d01dd"),
}


def test_parameter_table_matches_standard_shapes():
    assert set(slhdsa.PARAMETER_SETS) == set(_EXPECTED_SHAPES)
    for name, (n, h, d, a, k, sig_size) in _EXPECTED_SHAPES.items():
        ps = slhdsa.PARAMETER_SETS[name]
        assert (ps.n, ps.h, ps.d, ps.a, ps.k) == (n, h, d, a, k)
        assert ps.sig_size == sig_size
        assert ps.pk_size == 2 * n
        assert ps.sk_size == 4 * n
        assert ps.seed_size == 3 * n
        assert ps.hp * ps.d == ps.h
        assert ps.len1 == 2 * n and ps.len2 == 3


def test_keygen_kat_128s():
    """Key agreed byte-for-byte with an independent implementation."""
    ps = slhdsa.PARAMETER_SETS["128s"]
    seed = bytes(range(48))
    sk, pk = slhdsa.keygen(ps, seed)
    assert sk[:48] == seed          # SK.seed || SK.prf || PK.seed
    assert pk == sk[32:]            # PK.seed || PK.root
    assert pk.hex() == ("202122232425262728292a2b2c2d2e2f"
                        "89fd81fdbb5b94129b14761bdc6bf682")


def test_deterministic_sign_kat_128s():
    """Signature agreed byte-for-byte with an independent implementation."""
    ps = slhdsa.PARAMETER_SETS["128s"]
    sk, pk = slhdsa.keygen(ps, bytes(range(48)))
    message = b"cross-implementation agreement check"
    sig = slhdsa.sign(ps, message, sk, deterministic=True)
    assert hashlib.sha256(sig).hexdigest() == (
        "60d4c48fded96b072298afdc557dc60cceb82ded6a74ef74dadc6e1b2dcd7f0a")
    assert slhdsa.verify(ps, message, sig, pk)


def _regression_keypair(name):
    ps = slhdsa.PARAMETER_SETS[name]
    return ps, slhdsa.keygen(ps, hashlib.shake_256(name.encode()).digest(ps.seed_size))


@pytest.mark.parametrize("name", sorted(_REGRESSION_SIG_DIGESTS))
def test_regression_digests_all_parameter_sets(name):
    message = b"parameter set shakedown"
    ps, (sk, pk) = _regression_keypair(name)
    sig = slhdsa.sign(ps, message, sk, deterministic=True)
    assert len(sig) == ps.sig_size
    assert hashlib.sha256(sig).hexdigest() == _REGRESSION_SIG_DIGESTS[name]
    assert slhdsa.verify(ps, message, sig, pk)


@pytest.mark.parametrize("name", sorted(_REGRESSION_PUBLIC_KEYS))
def test_regression_public_keys(name):
    _, (_, pk) = _regression_keypair(name)
    assert pk.hex() == _REGRESSION_PUBLIC_KEYS[name]


def test_hedged_signature_with_context_regression():
    """addrnd and a non-empty context reach every hash a signature makes."""
    ps = slhdsa.PARAMETER_SETS["128f"]
    sk, pk = slhdsa.keygen(ps, bytes(range(48)))
    message, ctx = b"hedged with context", b"pqcli ctx"
    sig = slhdsa.sign(ps, message, sk, ctx=ctx, addrnd=bytes(range(100, 116)))
    assert hashlib.sha256(sig).hexdigest() == (
        "4382579a0246e9005a5e5c15bc67f6426622304c27c08efaeb3a45c28ffbf3c9")
    assert slhdsa.verify(ps, message, sig, pk, ctx=ctx)


def test_addrnd_of_another_length_is_refused():
    ps = slhdsa.PARAMETER_SETS["128f"]
    sk, _ = slhdsa.keygen(ps, bytes(range(48)))
    with pytest.raises(ValueError, match="^addrnd must be 16 bytes$"):
        slhdsa.sign(ps, b"m", sk, addrnd=bytes(15))


def _sign_calls(ps):
    """SHAKE calls of a signature that climbs itself up to PK.root: PRF_msg,
    H_msg and the FORS public key; k trees of 2^a secrets, 2^a leaves and
    2^a - 1 nodes; per layer a tree of 2^hp WOTS+ keys (len PRF calls,
    len (w - 1) steps, 1 compression) and 2^hp - 1 nodes. Each tree is
    hashed once: its path covers all leaves but the signing one, whose
    WOTS+ key is the rows of every chain value, and the climb hashes the
    nodes the path leaves out."""
    return (3 + ps.k * (3 * 2 ** ps.a - 1)
            + ps.d * ((ps.wots_len * slhdsa._W + 2) * 2 ** ps.hp - 1))


def _counted_shake(monkeypatch):
    calls = multiprocessing.Value("q", 0)   # shared, so the forked workers count too

    def counting_shake_256(data):
        with calls.get_lock():
            calls.value += 1
        return hashlib.shake_256(data)

    monkeypatch.setattr(slhdsa, "hashlib", types.SimpleNamespace(shake_256=counting_shake_256))
    return calls


def test_shake_calls_per_signature_128f(monkeypatch):
    """One SHAKE call per FIPS 205 hash: no call is cached or skipped, in
    keygen, sign or verify; sign runs each WOTS+ chain it signs with to
    its end, so its count is the same for every message."""
    ps = slhdsa.PARAMETER_SETS["128f"]
    calls = _counted_shake(monkeypatch)
    sk, pk = slhdsa.keygen(ps, bytes(range(48)))
    assert calls.value == 4495
    calls.value = 0
    sig = slhdsa.sign(ps, b"m", sk, deterministic=True)
    assert calls.value == 105196 == _sign_calls(ps)
    calls.value = 0
    assert slhdsa.verify(ps, b"m", sig, pk)
    assert calls.value == 6336
    calls.value = 0
    slhdsa.sign(ps, b"another message", sk, deterministic=True)
    assert calls.value == 105196


def test_sign_calls_match_the_closed_form_192f(monkeypatch):
    ps, (sk, _) = _regression_keypair("192f")
    calls = _counted_shake(monkeypatch)
    for message in (b"m", b"another message"):
        calls.value = 0
        slhdsa.sign(ps, message, sk, deterministic=True)
        assert calls.value == 169260 == _sign_calls(ps)


def test_hedged_signatures_differ_but_both_verify():
    ps = slhdsa.PARAMETER_SETS["128f"]
    sk, pk = slhdsa.keygen(ps, bytes(48))
    message = b"hedged randomness"
    one = slhdsa.sign(ps, message, sk)
    two = slhdsa.sign(ps, message, sk)
    assert one != two
    assert slhdsa.verify(ps, message, one, pk)
    assert slhdsa.verify(ps, message, two, pk)
    # explicit addrnd pins the hedge
    rnd = bytes(ps.n)
    assert slhdsa.sign(ps, message, sk, addrnd=rnd) == slhdsa.sign(ps, message, sk, addrnd=rnd)


def test_tampering_rejected():
    ps = slhdsa.PARAMETER_SETS["128f"]
    rng = random.Random(5)
    sk, pk = slhdsa.keygen(ps, rng.randbytes(ps.seed_size))
    message = b"bytes under test"
    sig = slhdsa.sign(ps, message, sk, deterministic=True)
    assert slhdsa.verify(ps, message, sig, pk)
    for _ in range(4):
        flipped = bytearray(sig)
        flipped[rng.randrange(len(sig))] ^= 1 << rng.randrange(8)
        assert not slhdsa.verify(ps, message, bytes(flipped), pk)
    assert not slhdsa.verify(ps, message + b"!", sig, pk)
    wrong_pk = bytearray(pk)
    wrong_pk[-1] ^= 1
    assert not slhdsa.verify(ps, message, sig, bytes(wrong_pk))


def test_context_string_separates_domains():
    ps = slhdsa.PARAMETER_SETS["128f"]
    sk, pk = slhdsa.keygen(ps, bytes(48))
    message = b"ctx"
    sig = slhdsa.sign(ps, message, sk, ctx=b"alpha", deterministic=True)
    assert slhdsa.verify(ps, message, sig, pk, ctx=b"alpha")
    assert not slhdsa.verify(ps, message, sig, pk, ctx=b"beta")
    assert not slhdsa.verify(ps, message, sig, pk)
    with pytest.raises(ValueError):
        slhdsa.sign(ps, message, sk, ctx=bytes(256))


def test_malformed_inputs():
    ps = slhdsa.PARAMETER_SETS["128f"]
    sk, pk = slhdsa.keygen(ps, bytes(48))
    sig = slhdsa.sign(ps, b"m", sk, deterministic=True)
    assert not slhdsa.verify(ps, b"m", sig[:-1], pk)
    assert not slhdsa.verify(ps, b"m", b"", pk)
    assert not slhdsa.verify(ps, b"m", sig, pk[:-1])
    with pytest.raises(ValueError):
        slhdsa.keygen(ps, bytes(47))
    with pytest.raises(ValueError):
        slhdsa.sign(ps, b"m", sk[:-1])


def test_empty_message_signs_and_verifies():
    ps = slhdsa.PARAMETER_SETS["128f"]
    sk, pk = slhdsa.keygen(ps, bytes(48))
    sig = slhdsa.sign(ps, b"", sk, deterministic=True)
    assert slhdsa.verify(ps, b"", sig, pk)


# -- the forked workers of keygen and sign ---------------------------------

_SHAKEDOWN = b"parameter set shakedown"
_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                               reason="no CPU affinity on this platform")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _expected_forks():
    """A child for every CPU but the caller's: keygen has two jobs, sign more."""
    cpus = len(os.sched_getaffinity(0))
    return min(cpus, 2) - 1 + cpus - 1


def _counted_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _refused_fork(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)


def _shakedown_128f_digest():
    ps, (sk, _) = _regression_keypair("128f")
    return hashlib.sha256(slhdsa.sign(ps, _SHAKEDOWN, sk, deterministic=True)).hexdigest()


@_affinity
def test_workers_are_reaped_before_keygen_and_sign_return(monkeypatch):
    forks = _counted_forks(monkeypatch)
    ps, (sk, _) = _regression_keypair("128f")
    _assert_no_child_left()
    slhdsa.sign(ps, b"m", sk, deterministic=True)
    _assert_no_child_left()
    assert len(forks) == _expected_forks()


@_affinity
def test_a_job_failing_in_a_child_runs_again_in_the_caller(monkeypatch):
    forks = _counted_forks(monkeypatch)
    caller, node = os.getpid(), slhdsa._node

    def node_in_caller_only(*args):
        if os.getpid() != caller:
            raise RuntimeError("worker fails")
        return node(*args)

    monkeypatch.setattr(slhdsa, "_node", node_in_caller_only)
    assert _shakedown_128f_digest() == _REGRESSION_SIG_DIGESTS["128f"]
    _assert_no_child_left()
    assert len(forks) == _expected_forks()


@_affinity
def test_more_shares_than_cpus_write_the_same_bytes(monkeypatch):
    """Eight processes, so seven children take jobs from the queue and
    write their slots of the shared map at once: a slot written twice or
    never changes the digest."""
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert _shakedown_128f_digest() == _REGRESSION_SIG_DIGESTS["128f"]
    _assert_no_child_left()
    assert len(forks) == 1 + 7


@_affinity
def test_an_error_in_the_caller_kills_and_reaps_every_worker(monkeypatch):
    """Every node fails in every process. A child leaves at its first node;
    the largest jobs are nodes, so the caller's first job raises too, while
    a worker may still be running."""
    ps, (sk, _) = _regression_keypair("128f")
    forks = _counted_forks(monkeypatch)

    def failing_node(*args):
        raise RuntimeError("node fails")

    monkeypatch.setattr(slhdsa, "_node", failing_node)
    with pytest.raises(RuntimeError, match="node fails"):
        slhdsa.sign(ps, b"m", sk, deterministic=True)
    assert len(forks) == len(os.sched_getaffinity(0)) - 1
    _assert_no_child_left()


def test_a_failing_fork_leaves_the_bytes_unchanged(monkeypatch):
    def fork():
        raise OSError("no fork here")

    monkeypatch.setattr(os, "fork", fork)
    assert _shakedown_128f_digest() == _REGRESSION_SIG_DIGESTS["128f"]
    _assert_no_child_left()


def test_a_second_thread_signs_without_forking(monkeypatch):
    _refused_fork(monkeypatch)
    digests = []
    thread = threading.Thread(target=lambda: digests.append(_shakedown_128f_digest()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert digests == [_REGRESSION_SIG_DIGESTS["128f"]]


@_affinity
def test_one_allowed_cpu_forks_nothing(monkeypatch):
    cpus = os.sched_getaffinity(0)
    _refused_fork(monkeypatch)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        assert _shakedown_128f_digest() == _REGRESSION_SIG_DIGESTS["128f"]
    finally:
        os.sched_setaffinity(0, cpus)
    assert os.sched_getaffinity(0) == cpus


@_affinity
def test_a_wrong_node_from_a_worker_gives_no_signature(monkeypatch):
    """sign climbs its own signature to PK.root, so a wrong node in the top
    layer's tree, whichever process computed it, raises instead of reaching
    a certificate. A wrong node in a lower layer's tree or a FORS tree is
    not caught (see the slhdsa module docstring)."""
    ps, (sk, _) = _regression_keypair("128f")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    node, top_layer = slhdsa._node, ps.d - 1

    def zeros_in_the_top_layer(n, prefix, *args):
        # an XMSS prefix is PK.seed, then the layer word
        if int.from_bytes(prefix[n:n + 4], "big") == top_layer:
            return bytes(n)
        return node(n, prefix, *args)

    monkeypatch.setattr(slhdsa, "_node", zeros_in_the_top_layer)
    with pytest.raises(KeyMismatch, match="PK.root"):
        slhdsa.sign(ps, _SHAKEDOWN, sk, deterministic=True)
    _assert_no_child_left()


@_affinity
@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("child_quits", [False, True], ids=["all-finish", "child-quits"])
def test_the_queue_fills_every_slot(monkeypatch, cpus, child_quits):
    """Jobs of unequal sizes from one queue: every slot holds its job's
    bytes, also when each child exits, unflagged, on taking its second job;
    one process opens no pipe and forks nothing; every child is reaped and
    every descriptor closed."""
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    if cpus == 1:
        monkeypatch.setattr(os, "pipe", None)
    caller, taken = os.getpid(), []

    def job(i):
        if os.getpid() == caller:
            time.sleep(0.002)   # so that every child gets jobs
        elif child_quits:
            if taken:
                os._exit(0)
            taken.append(i)
        return bytes([i]) * (i % 5 + 1)

    jobs = [(i % 7, i % 5 + 1, partial(job, i)) for i in range(40)]
    descriptors = os.listdir("/proc/self/fd")
    with slhdsa._run_jobs(jobs) as out:
        assert out[:-len(jobs)] == b"".join(bytes([i]) * (i % 5 + 1) for i in range(40))
    assert os.listdir("/proc/self/fd") == descriptors
    _assert_no_child_left()
    assert len(forks) == cpus - 1


# -- keys whose parts disagree ----------------------------------------------

SLH_KEY_PARTS = ("SK.seed", "SK.prf", "PK.seed", "PK.root")


def with_a_flipped_part(private: bytes, n: int, part: str) -> bytes:
    """The PKCS#8 key with one byte of an n-byte part flipped: the raw key,
    SK.seed || SK.prf || PK.seed || PK.root, ends the encoding."""
    out = bytearray(private)
    out[len(out) - (4 - SLH_KEY_PARTS.index(part)) * n] ^= 1
    return bytes(out)


@pytest.mark.parametrize("part", SLH_KEY_PARTS)
def test_a_key_whose_parts_disagree_loads_but_does_not_sign(slh_key, part):
    """Only SK.prf is free: it seeds the randomizer, which the signature
    carries. Load does not check, as rebuilding PK.root is a full keygen."""
    record = algs.load_private_key(with_a_flipped_part(slh_key.private, 16, part))
    name = parse_name("CN=parts")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(record), x509.default_validity(1),
                         algs.signature_algorithm_for(record.spec))
    if part == "SK.prf":
        assert algs.verify(record.spec, record.public, b"m", algs.sign(record.spec, record, b"m"))
        cert = x509.parse_certificate(x509.sign_certificate(tbs, record).emit())
        assert x509.verify_certificate(cert, cert.tbs.spki).all_valid
        return
    with pytest.raises(KeyMismatch, match="PK.root"):
        algs.sign(record.spec, record, b"m")
    with pytest.raises(KeyMismatch, match="PK.root"):
        x509.sign_certificate(tbs, record)


@pytest.mark.parametrize("part", SLH_KEY_PARTS)
def test_csr_from_a_key_whose_parts_disagree_exits_4(tmp_path, monkeypatch, capsys, slh_key,
                                                     part):
    monkeypatch.chdir(tmp_path)
    pem.write_pem("k.pem", pem.LABEL_PRIVATE_KEY, with_a_flipped_part(slh_key.private, 16, part))
    code = cli.main(["csr", "-key", "k.pem", "-subj", "CN=parts"])
    err = capsys.readouterr().err
    if part == "SK.prf":
        assert (code, err) == (0, "")
        assert x509.verify_csr(x509.parse_csr((tmp_path / "csr.pem").read_bytes()))
    else:
        assert code == 4
        assert err == ("pqcli: SLH-DSA signature does not lead to PK.root; "
                       "the key's parts disagree\n")
        assert not (tmp_path / "csr.pem").exists()
