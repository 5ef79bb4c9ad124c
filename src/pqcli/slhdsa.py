"""SLH-DSA (FIPS 205), SHAKE family, all six parameter sets.

Pure-Python implementation of the stateless hash-based signature scheme:
WOTS+ one-time signatures, XMSS Merkle trees, a hypertree of XMSS trees,
and FORS few-time signatures, all driven by SHAKE-256.

Keys and signatures are raw byte strings in the standard layouts:
secret key SK.seed || SK.prf || PK.seed || PK.root (4n bytes), public key
PK.seed || PK.root (2n bytes). Key generation is deterministic from a
3n-byte seed, which is also what gets serialized as the private key.

Hashing core: nearly all the time goes into the tweakable hashes
SHAKE-256(PK.seed || ADRS || M), so each is one bytes concatenation and
one shake_256 call. An address is immutable bytes packed by one struct
(_ADRS). The part of PK.seed || ADRS that stays constant over a WOTS+ key
pair, a chain, an XMSS tree or the FORS trees of a signature is
concatenated once as a prefix; the loops below it append only the
varying words (hash step, tree height, tree index), taken from _WORDS
where they are small.

The SHAKE calls are FIPS 205's, one for one, but each structure that
FIPS 205 writes out twice has one routine here (FIPS 205 name: routine):
  chain, in wots_pkGen, wots_sign, wots_pkFromSig: _wots_chains
  xmss_node, fors_node: _node
  the paths of xmss_sign, fors_sign: _auth_path
  the climbs of xmss_pkFromSig, fors_pkFromSig: _root_from_path
  slh_verify from fors_pkFromSig up, and ht_sign: _ht_walk
The rest of an algorithm is the function of its name: wots_pkGen is
_wots_pk, wots_pkFromSig _wots_pk_from_sig, fors_sign _fors_sign (as
jobs), etc.; xmss_sign is the WOTS+ signature in sign and a path.
sign and verify share that one walk, so sign also climbs the top layer,
and raises KeyMismatch if its signature misses PK.root (parts disagree).

Processes (_in_shares): given the digest, the FORS secrets and paths and
each layer's XMSS path (88% of a 128f signature's calls, 99.8% of 128s)
are split node by node into shares of equal SHAKE calls, one per CPU the
process may run on. The caller works one; a child forked for each other
share writes its nodes into their slots of one shared anonymous mmap and
is reaped before sign returns. The caller then does the rest in order:
the FORS key, and each layer's WOTS+ signature and climb. keygen splits
the top tree in half. One CPU, no os.fork, or a second thread (a child
forked beside one can deadlock) means no child; the share of a child
that failed, or of a fork that did, runs in the caller, so the bytes
never change. verify stays serial.

Not constant-time; fine for certificate tooling, not for production
signing on shared hardware.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
import threading
from bisect import bisect
from functools import partial
from itertools import accumulate, repeat
from typing import NamedTuple

from .errors import KeyMismatch

# All SHAKE parameter sets use w=16, so base-w digits are nibbles and the
# WOTS+ checksum always occupies len2=3 digits.
_W = 16


class ParameterSet(NamedTuple):
    name: str
    n: int          # hash output bytes
    h: int          # total hypertree height
    d: int          # hypertree layers
    hp: int         # per-layer XMSS tree height (h / d)
    a: int          # FORS tree height
    k: int          # FORS tree count
    len1: int       # WOTS+ message digits
    len2: int       # WOTS+ checksum digits
    wots_len: int   # len1 + len2
    md_bytes: int   # digest bytes feeding FORS index extraction
    tree_bytes: int
    leaf_bytes: int
    m: int          # H_msg output length
    sig_size: int
    pk_size: int
    sk_size: int
    seed_size: int


def _make(name: str, n: int, h: int, d: int, a: int, k: int) -> ParameterSet:
    hp = h // d
    len1 = 2 * n
    len2 = 3
    wots_len = len1 + len2
    md_bytes = (k * a + 7) // 8
    tree_bytes = (h - hp + 7) // 8
    leaf_bytes = (hp + 7) // 8
    return ParameterSet(
        name=name, n=n, h=h, d=d, hp=hp, a=a, k=k,
        len1=len1, len2=len2, wots_len=wots_len,
        md_bytes=md_bytes, tree_bytes=tree_bytes, leaf_bytes=leaf_bytes,
        m=md_bytes + tree_bytes + leaf_bytes,
        sig_size=n + k * (1 + a) * n + d * (hp + wots_len) * n,
        pk_size=2 * n,
        sk_size=4 * n,
        seed_size=3 * n,
    )


PARAMETER_SETS: dict[str, ParameterSet] = {
    "128s": _make("128s", 16, 63, 7, 12, 14),
    "128f": _make("128f", 16, 66, 22, 6, 33),
    "192s": _make("192s", 24, 63, 7, 14, 17),
    "192f": _make("192f", 24, 66, 22, 8, 33),
    "256s": _make("256s", 32, 64, 8, 14, 22),
    "256f": _make("256f", 32, 68, 17, 9, 35),
}


# -- 32-byte ADRS ------------------------------------------------------

_TYPE_WOTS_HASH = 0
_TYPE_WOTS_PK = 1
_TYPE_TREE = 2
_TYPE_FORS_TREE = 3
_TYPE_FORS_ROOTS = 4
_TYPE_WOTS_PRF = 5
_TYPE_FORS_PRF = 6

# layer, tree (12 bytes; every tree index fits the low 8), type, key pair,
# chain or tree height, hash step or tree index
_ADRS = struct.Struct(">I4xQIIII")
_U32 = struct.Struct(">I")
# Hash steps (< w), tree heights (<= a, hp) and chain indices (< len):
# every small word an address takes.
_WORDS = tuple(_U32.pack(i)
               for i in range(max(ps.wots_len for ps in PARAMETER_SETS.values())))


# -- message hash -------------------------------------------------------

def _H_msg(ps: ParameterSet, r: bytes, pk_seed: bytes, pk_root: bytes, msg: bytes) -> bytes:
    return hashlib.shake_256(r + pk_seed + pk_root + msg).digest(ps.m)


# -- WOTS+ --------------------------------------------------------------

def _wots_digits(msg: bytes) -> list[int]:
    """Message nibbles plus the len2 = 3 nibbles of the WOTS+ checksum."""
    digits = [d for byte in msg for d in (byte >> 4, byte & 0x0F)]
    csum = (_W - 1) * len(digits) - sum(digits)
    return digits + [csum >> 8, (csum >> 4) & 0x0F, csum & 0x0F]


def _wots_chains(ps: ParameterSet, pk_seed: bytes, layer: int, tree: int, kp: int,
                 values, starts, stops) -> list[bytes]:
    """FIPS 205 chain() over every chain of key pair kp: chain i takes
    values[i] from hash step starts[i] up to stops[i]."""
    prefix = pk_seed + _ADRS.pack(layer, tree, _TYPE_WOTS_HASH, kp, 0, 0)[:24]
    shake, n = hashlib.shake_256, ps.n
    ends = []
    for word, x, start, stop in zip(_WORDS, values, starts, stops):
        chain = prefix + word
        for step in range(start, stop):
            x = shake(chain + _WORDS[step] + x).digest(n)
        ends.append(x)
    return ends


def _wots_from_secrets(ps: ParameterSet, sk_seed: bytes, pk_seed: bytes, layer: int,
                       tree: int, kp: int, stops) -> list[bytes]:
    """Chain i of key pair kp run from its secret value up to stops[i]."""
    prefix = pk_seed + _ADRS.pack(layer, tree, _TYPE_WOTS_PRF, kp, 0, 0)[:24]
    suffix = _WORDS[0] + sk_seed
    shake, n = hashlib.shake_256, ps.n
    secrets = [shake(prefix + _WORDS[i] + suffix).digest(n) for i in range(ps.wots_len)]
    return _wots_chains(ps, pk_seed, layer, tree, kp, secrets, repeat(0), stops)


def _wots_compress(ps: ParameterSet, pk_seed: bytes, layer: int, tree: int, kp: int,
                   ends: list[bytes]) -> bytes:
    adrs = _ADRS.pack(layer, tree, _TYPE_WOTS_PK, kp, 0, 0)
    return hashlib.shake_256(pk_seed + adrs + b"".join(ends)).digest(ps.n)


def _wots_pk(ps: ParameterSet, sk_seed: bytes, pk_seed: bytes, layer: int, tree: int,
             kp: int) -> bytes:
    ends = _wots_from_secrets(ps, sk_seed, pk_seed, layer, tree, kp, repeat(_W - 1))
    return _wots_compress(ps, pk_seed, layer, tree, kp, ends)


def _wots_sign(ps: ParameterSet, msg: bytes, sk_seed: bytes, pk_seed: bytes, layer: int,
               tree: int, kp: int) -> bytes:
    digits = _wots_digits(msg)
    return b"".join(_wots_from_secrets(ps, sk_seed, pk_seed, layer, tree, kp, digits))


def _wots_pk_from_sig(ps: ParameterSet, sig: bytes, msg: bytes, pk_seed: bytes, layer: int,
                      tree: int, kp: int) -> bytes:
    n = ps.n
    values = [sig[i:i + n] for i in range(0, ps.wots_len * n, n)]
    ends = _wots_chains(ps, pk_seed, layer, tree, kp, values, _wots_digits(msg),
                        repeat(_W - 1))
    return _wots_compress(ps, pk_seed, layer, tree, kp, ends)


# -- Merkle trees -------------------------------------------------------
# XMSS and FORS trees hash a node as SHAKE(prefix || height || index ||
# left || right), where prefix is PK.seed || ADRS[:24] of the tree; they
# differ only in their leaves. A FORS signature's k trees share one prefix,
# so leaf idx of FORS tree i takes the global index g = (i << a) + idx. For
# both kinds the node above leaf g at height j is then g >> j, and its
# sibling (g >> j) ^ 1.

def _node_hash(n: int, prefix: bytes, z: int, i: int, data: bytes) -> bytes:
    return hashlib.shake_256(prefix + _WORDS[z] + _U32.pack(i) + data).digest(n)


def _node(n: int, prefix: bytes, leaf, i: int, z: int) -> bytes:
    """Node i at height z, with leaf(i) giving the leaves."""
    if z == 0:
        return leaf(i)
    return _node_hash(n, prefix, z, i, _node(n, prefix, leaf, 2 * i, z - 1)
                      + _node(n, prefix, leaf, 2 * i + 1, z - 1))


def _auth_path(n: int, prefix: bytes, leaf, leaf_calls: int, g: int, height: int) -> list:
    """Leaf g's path as jobs (see _in_shares): a sibling of height j has 2^j leaves."""
    return [(((leaf_calls + 1) << j) - 1, partial(_node, n, prefix, leaf, (g >> j) ^ 1, j))
            for j in range(height)]


def _root_from_path(n: int, prefix: bytes, node: bytes, g: int, auth: bytes,
                    height: int) -> bytes:
    """Climb from leaf g, whose value is node, to the root."""
    for j in range(height):
        sibling = auth[j * n:(j + 1) * n]
        children = node + sibling if (g >> j) & 1 == 0 else sibling + node
        node = _node_hash(n, prefix, j + 1, g >> (j + 1), children)
    return node


# -- XMSS and the hypertree ---------------------------------------------

def _xmss_prefix(pk_seed: bytes, layer: int, tree: int) -> bytes:
    return pk_seed + _ADRS.pack(layer, tree, _TYPE_TREE, 0, 0, 0)[:24]


def _ht_walk(ps: ParameterSet, sig_fors: bytes, md: bytes, pk_seed: bytes,
             layers: list[tuple[int, int]], xmss_sig) -> tuple[bytes, bytes]:
    """Verify from the FORS signature up: msg is the FORS key at layer 0 and
    layer j's root at j + 1, where xmss_sig(j, tree, leaf, msg) signs it.
    Returns the XMSS signatures joined and the top root, to match PK.root."""
    msg = _fors_pk_from_sig(ps, sig_fors, md, pk_seed, *layers[0])
    sigs, wots_size = [], ps.wots_len * ps.n
    for layer, (tree, leaf) in enumerate(layers):
        sig = xmss_sig(layer, tree, leaf, msg)
        sigs.append(sig)
        node = _wots_pk_from_sig(ps, sig[:wots_size], msg, pk_seed, layer, tree, leaf)
        msg = _root_from_path(ps.n, _xmss_prefix(pk_seed, layer, tree), node, leaf,
                              sig[wots_size:], ps.hp)
    return b"".join(sigs), msg


# -- FORS ---------------------------------------------------------------

def _fors_prefix(pk_seed: bytes, tree: int, kp: int) -> bytes:
    return pk_seed + _ADRS.pack(0, tree, _TYPE_FORS_TREE, kp, 0, 0)[:24]


def _fors_leaves(ps: ParameterSet, md: bytes) -> list[int]:
    """Split the digest into k indices of a bits each, left to right, and
    return each as its global leaf index."""
    bits = int.from_bytes(md[:ps.md_bytes], "big")
    total, mask = ps.md_bytes * 8, (1 << ps.a) - 1
    return [(i << ps.a) + ((bits >> (total - (i + 1) * ps.a)) & mask) for i in range(ps.k)]


def _fors_sign(ps: ParameterSet, md: bytes, sk_seed: bytes, pk_seed: bytes,
               tree: int, kp: int) -> list:
    """As jobs (see _in_shares): each tree's secret, then its path; a leaf is
    2 SHAKE calls, its secret and its hash."""
    n, node_prefix = ps.n, _fors_prefix(pk_seed, tree, kp)
    # the secret-key PRF address ends in height 0, then the leaf index
    sk_prefix = pk_seed + _ADRS.pack(0, tree, _TYPE_FORS_PRF, kp, 0, 0)[:28]

    def secret(g: int) -> bytes:
        return hashlib.shake_256(sk_prefix + _U32.pack(g) + sk_seed).digest(n)

    def leaf(g: int) -> bytes:
        return _node_hash(n, node_prefix, 0, g, secret(g))

    return [job for g in _fors_leaves(ps, md)
            for job in [(1, partial(secret, g))] + _auth_path(n, node_prefix, leaf, 2, g, ps.a)]


def _fors_pk_from_sig(ps: ParameterSet, sig: bytes, md: bytes, pk_seed: bytes,
                      tree: int, kp: int) -> bytes:
    node_prefix = _fors_prefix(pk_seed, tree, kp)
    n, size = ps.n, (1 + ps.a) * ps.n
    roots = []
    for offset, g in zip(range(0, ps.k * size, size), _fors_leaves(ps, md)):
        leaf = _node_hash(n, node_prefix, 0, g, sig[offset:offset + n])
        roots.append(_root_from_path(n, node_prefix, leaf, g, sig[offset + n:offset + size],
                                     ps.a))
    adrs = _ADRS.pack(0, tree, _TYPE_FORS_ROOTS, kp, 0, 0)
    return hashlib.shake_256(pk_seed + adrs + b"".join(roots)).digest(n)


# -- shares across processes --------------------------------------------

def _in_shares(jobs: list, n: int) -> bytes:
    """b"".join(job() for _, job in jobs), where each job gives n bytes and
    comes with its SHAKE calls, worked out in shares (see Processes above)."""
    forkable = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                and threading.active_count() == 1)
    count = min(len(os.sched_getaffinity(0)) if forkable else 1, len(jobs))
    ends = list(accumulate(calls for calls, _ in jobs))
    cuts = [0] + [bisect(ends, ends[-1] * w / count) for w in range(1, count)] + [len(jobs)]
    children = []
    with mmap.mmap(-1, n * len(jobs)) as out:   # anonymous and shared with every child
        def run(a, b):
            out[a * n:b * n] = b"".join(job() for _, job in jobs[a:b])

        try:
            for share in zip(cuts[1:], cuts[2:]):
                try:
                    pid = os.fork()
                except OSError:
                    run(*share)
                    continue
                if pid == 0:
                    try:   # the child leaves only here: no atexit, flush or traceback
                        run(*share)
                        os._exit(0)
                    finally:
                        os._exit(1)
                children.append((pid, share))
            run(0, cuts[1])
            while children:
                pid, share = children[-1]
                status = os.waitpid(pid, 0)[1]
                children.pop()
                if status:
                    run(*share)
        finally:
            for pid, _ in children:
                os.kill(pid, 9)   # SIGKILL; importing signal would add ~1 ms to a CLI start
                os.waitpid(pid, 0)
        return out[:]


# -- top level ----------------------------------------------------------

def keygen(ps: ParameterSet, seed: bytes) -> tuple[bytes, bytes]:
    """Derive (secret key, public key) from a 3n-byte seed."""
    if len(seed) != ps.seed_size:
        raise ValueError(f"seed must be {ps.seed_size} bytes, got {len(seed)}")
    sk_seed, sk_prf, pk_seed = seed[:ps.n], seed[ps.n:2 * ps.n], seed[2 * ps.n:]
    prefix = _xmss_prefix(pk_seed, ps.d - 1, 0)
    leaf = partial(_wots_pk, ps, sk_seed, pk_seed, ps.d - 1, 0)
    halves = [(1, partial(_node, ps.n, prefix, leaf, i, ps.hp - 1)) for i in (0, 1)]
    pk_root = _node_hash(ps.n, prefix, ps.hp, 0, _in_shares(halves, ps.n))
    return sk_seed + sk_prf + pk_seed + pk_root, pk_seed + pk_root


def _digest_split(ps: ParameterSet, digest: bytes) -> tuple[bytes, list[tuple[int, int]]]:
    """md, and the (tree, leaf) of the XMSS key pair that signs at each layer,
    bottom up; the bottom one is also the FORS key pair's."""
    idx_tree = int.from_bytes(digest[ps.md_bytes:ps.md_bytes + ps.tree_bytes], "big")
    idx_leaf = int.from_bytes(digest[ps.md_bytes + ps.tree_bytes:ps.m], "big")
    mask = (1 << ps.hp) - 1
    idx = ((idx_tree << ps.hp) | (idx_leaf & mask)) & ((1 << ps.h) - 1)
    return digest[:ps.md_bytes], [(idx >> (j + 1) * ps.hp, (idx >> j * ps.hp) & mask)
                                  for j in range(ps.d)]


def sign(ps: ParameterSet, message: bytes, sk: bytes, ctx: bytes = b"", *,
         deterministic: bool = False, addrnd: bytes | None = None) -> bytes:
    """Pure-mode signature over message with an optional context string.

    Hedged by default; deterministic=True substitutes PK.seed for the
    fresh randomness, giving repeatable output.
    """
    if len(sk) != ps.sk_size:
        raise ValueError(f"secret key must be {ps.sk_size} bytes, got {len(sk)}")
    if len(ctx) > 255:
        raise ValueError("context string longer than 255 bytes")
    sk_seed, sk_prf, pk_seed, pk_root = (sk[i:i + ps.n] for i in range(0, ps.sk_size, ps.n))

    if addrnd is not None:
        if len(addrnd) != ps.n:
            raise ValueError(f"addrnd must be {ps.n} bytes")
        opt_rand = bytes(addrnd)
    elif deterministic:
        opt_rand = pk_seed
    else:
        opt_rand = os.urandom(ps.n)

    m_prime = b"\x00" + bytes([len(ctx)]) + ctx + message
    r = hashlib.shake_256(sk_prf + opt_rand + m_prime).digest(ps.n)  # PRF_msg
    md, layers = _digest_split(ps, _H_msg(ps, r, pk_seed, pk_root, m_prime))

    jobs = _fors_sign(ps, md, sk_seed, pk_seed, *layers[0])
    # an XMSS leaf, a WOTS+ public key, is len PRF calls, len * (w - 1) steps and 1 hash
    for layer, (tree, leaf) in enumerate(layers):
        jobs += _auth_path(ps.n, _xmss_prefix(pk_seed, layer, tree),
                           partial(_wots_pk, ps, sk_seed, pk_seed, layer, tree),
                           ps.wots_len * _W + 1, leaf, ps.hp)
    done, fors_size, path_size = _in_shares(jobs, ps.n), ps.k * (1 + ps.a) * ps.n, ps.hp * ps.n
    sig_fors, paths = done[:fors_size], done[fors_size:]
    sig_ht, root = _ht_walk(ps, sig_fors, md, pk_seed, layers,
                            lambda layer, tree, leaf, msg: (
                                _wots_sign(ps, msg, sk_seed, pk_seed, layer, tree, leaf)
                                + paths[layer * path_size:(layer + 1) * path_size]))
    if root != pk_root:
        raise KeyMismatch("SLH-DSA signature does not lead to PK.root; the key's parts disagree")
    return r + sig_fors + sig_ht


def verify(ps: ParameterSet, message: bytes, signature: bytes, pk: bytes,
           ctx: bytes = b"") -> bool:
    if len(pk) != ps.pk_size or len(signature) != ps.sig_size or len(ctx) > 255:
        return False
    pk_seed, pk_root = pk[:ps.n], pk[ps.n:]
    m_prime = b"\x00" + bytes([len(ctx)]) + ctx + message

    fors_end = ps.n + ps.k * (1 + ps.a) * ps.n
    r, sig_fors, sig_ht = signature[:ps.n], signature[ps.n:fors_end], signature[fors_end:]
    md, layers = _digest_split(ps, _H_msg(ps, r, pk_seed, pk_root, m_prime))
    size = (ps.hp + ps.wots_len) * ps.n
    _, root = _ht_walk(ps, sig_fors, md, pk_seed, layers,
                       lambda layer, tree, leaf, msg: sig_ht[layer * size:(layer + 1) * size])
    return root == pk_root
