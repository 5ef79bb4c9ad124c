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
pair, a chain, an XMSS node or the FORS trees of a signature is
concatenated once as a prefix; the loops below it append only the
varying words (hash step, tree height, tree index), taken from _WORDS
where they are small. The functions and the number of SHAKE calls follow
the FIPS 205 algorithms one to one.

Not constant-time; fine for certificate tooling, not for production
signing on shared hardware.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

# All SHAKE parameter sets use w=16, so base-w digits are nibbles and the
# WOTS+ checksum always occupies len2=3 digits packed into 2 bytes.
_LG_W = 4
_W = 16


@dataclass(frozen=True)
class ParameterSet:
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
    len1 = (8 * n + _LG_W - 1) // _LG_W
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


# -- message hashes -----------------------------------------------------

def _PRF_msg(ps: ParameterSet, sk_prf: bytes, opt_rand: bytes, msg: bytes) -> bytes:
    return hashlib.shake_256(sk_prf + opt_rand + msg).digest(ps.n)


def _H_msg(ps: ParameterSet, r: bytes, pk_seed: bytes, pk_root: bytes, msg: bytes) -> bytes:
    return hashlib.shake_256(r + pk_seed + pk_root + msg).digest(ps.m)


# -- WOTS+ --------------------------------------------------------------

def _chain(n: int, x: bytes, start: int, steps: int, prefix: bytes) -> bytes:
    """F applied `steps` times from hash step `start`; prefix is
    PK.seed || ADRS up to and including the chain word."""
    shake = hashlib.shake_256
    for i in range(start, start + steps):
        x = shake(prefix + _WORDS[i] + x).digest(n)
    return x


def _wots_digits(ps: ParameterSet, msg: bytes) -> list[int]:
    """Message nibbles plus the WOTS+ checksum digits."""
    digits = []
    for byte in msg:
        digits.append(byte >> 4)
        digits.append(byte & 0x0F)
    digits = digits[:ps.len1]
    csum = sum(_W - 1 - v for v in digits)
    csum <<= (8 - ((ps.len2 * _LG_W) % 8)) % 8
    csum_bytes = csum.to_bytes((ps.len2 * _LG_W + 7) // 8, "big")
    for i in range(ps.len2):
        digits.append((csum_bytes[i // 2] >> (4 if i % 2 == 0 else 0)) & 0x0F)
    return digits


def _wots_pk_compress(ps: ParameterSet, pk_seed: bytes, layer: int, tree: int, kp: int,
                      chains: list[bytes]) -> bytes:
    adrs = _ADRS.pack(layer, tree, _TYPE_WOTS_PK, kp, 0, 0)
    return hashlib.shake_256(pk_seed + adrs + b"".join(chains)).digest(ps.n)


def _wots_chains(ps: ParameterSet, sk_seed: bytes, pk_seed: bytes, layer: int, tree: int,
                 kp: int, steps: list[int]) -> list[bytes]:
    """Chain i of key pair kp run steps[i] times from its secret value."""
    sk_prefix = pk_seed + _ADRS.pack(layer, tree, _TYPE_WOTS_PRF, kp, 0, 0)[:24]
    chain_prefix = pk_seed + _ADRS.pack(layer, tree, _TYPE_WOTS_HASH, kp, 0, 0)[:24]
    sk_suffix = _WORDS[0] + sk_seed
    shake, n = hashlib.shake_256, ps.n
    chains = []
    for i, count in enumerate(steps):
        word = _WORDS[i]
        sk = shake(sk_prefix + word + sk_suffix).digest(n)
        chains.append(_chain(n, sk, 0, count, chain_prefix + word))
    return chains


def _wots_pk(ps: ParameterSet, sk_seed: bytes, pk_seed: bytes, layer: int, tree: int,
             kp: int) -> bytes:
    chains = _wots_chains(ps, sk_seed, pk_seed, layer, tree, kp, [_W - 1] * ps.wots_len)
    return _wots_pk_compress(ps, pk_seed, layer, tree, kp, chains)


def _wots_sign(ps: ParameterSet, msg: bytes, sk_seed: bytes, pk_seed: bytes, layer: int,
               tree: int, kp: int) -> bytes:
    digits = _wots_digits(ps, msg)
    return b"".join(_wots_chains(ps, sk_seed, pk_seed, layer, tree, kp, digits))


def _wots_pk_from_sig(ps: ParameterSet, sig: bytes, msg: bytes, pk_seed: bytes, layer: int,
                      tree: int, kp: int) -> bytes:
    chain_prefix = pk_seed + _ADRS.pack(layer, tree, _TYPE_WOTS_HASH, kp, 0, 0)[:24]
    n = ps.n
    chains = []
    for i, digit in enumerate(_wots_digits(ps, msg)):
        chains.append(_chain(n, sig[i * n:(i + 1) * n], digit, _W - 1 - digit,
                             chain_prefix + _WORDS[i]))
    return _wots_pk_compress(ps, pk_seed, layer, tree, kp, chains)


# -- XMSS ---------------------------------------------------------------

def _tree_hash(ps: ParameterSet, pk_seed: bytes, layer: int, tree: int, z: int, i: int,
               children: bytes) -> bytes:
    adrs = _ADRS.pack(layer, tree, _TYPE_TREE, 0, z, i)
    return hashlib.shake_256(pk_seed + adrs + children).digest(ps.n)


def _xmss_node(ps: ParameterSet, sk_seed: bytes, pk_seed: bytes, i: int, z: int,
               layer: int, tree: int) -> bytes:
    if z == 0:
        return _wots_pk(ps, sk_seed, pk_seed, layer, tree, i)
    left = _xmss_node(ps, sk_seed, pk_seed, 2 * i, z - 1, layer, tree)
    right = _xmss_node(ps, sk_seed, pk_seed, 2 * i + 1, z - 1, layer, tree)
    return _tree_hash(ps, pk_seed, layer, tree, z, i, left + right)


def _xmss_sign(ps: ParameterSet, msg: bytes, sk_seed: bytes, idx: int,
               pk_seed: bytes, layer: int, tree: int) -> tuple[bytes, bytes]:
    sig = _wots_sign(ps, msg, sk_seed, pk_seed, layer, tree, idx)
    auth = []
    node = idx
    for j in range(ps.hp):
        auth.append(_xmss_node(ps, sk_seed, pk_seed, node ^ 1, j, layer, tree))
        node >>= 1
    return sig, b"".join(auth)


def _xmss_root_from_sig(ps: ParameterSet, idx: int, sig: bytes, auth: bytes,
                        msg: bytes, pk_seed: bytes, layer: int, tree: int) -> bytes:
    node = _wots_pk_from_sig(ps, sig, msg, pk_seed, layer, tree, idx)
    for j in range(ps.hp):
        sibling = auth[j * ps.n:(j + 1) * ps.n]
        children = node + sibling if (idx >> j) & 1 == 0 else sibling + node
        node = _tree_hash(ps, pk_seed, layer, tree, j + 1, idx >> (j + 1), children)
    return node


# -- hypertree ----------------------------------------------------------

def _ht_sign(ps: ParameterSet, msg: bytes, sk_seed: bytes, pk_seed: bytes,
             idx_tree: int, idx_leaf: int) -> bytes:
    sig, auth = _xmss_sign(ps, msg, sk_seed, idx_leaf, pk_seed, 0, idx_tree)
    parts = [sig, auth]
    root = _xmss_root_from_sig(ps, idx_leaf, sig, auth, msg, pk_seed, 0, idx_tree)
    for j in range(1, ps.d):
        idx_leaf = idx_tree % (1 << ps.hp)
        idx_tree >>= ps.hp
        sig, auth = _xmss_sign(ps, root, sk_seed, idx_leaf, pk_seed, j, idx_tree)
        parts.append(sig)
        parts.append(auth)
        if j < ps.d - 1:
            root = _xmss_root_from_sig(ps, idx_leaf, sig, auth, root, pk_seed, j, idx_tree)
    return b"".join(parts)


def _ht_verify(ps: ParameterSet, msg: bytes, sig_ht: bytes, pk_seed: bytes,
               idx_tree: int, idx_leaf: int, pk_root: bytes) -> bool:
    layer = (ps.wots_len + ps.hp) * ps.n
    node = msg
    offset = 0
    for j in range(ps.d):
        if j > 0:
            idx_leaf = idx_tree % (1 << ps.hp)
            idx_tree >>= ps.hp
        sig = sig_ht[offset:offset + ps.wots_len * ps.n]
        auth = sig_ht[offset + ps.wots_len * ps.n:offset + layer]
        offset += layer
        node = _xmss_root_from_sig(ps, idx_leaf, sig, auth, node, pk_seed, j, idx_tree)
    return node == pk_root


# -- FORS ---------------------------------------------------------------
# Every FORS address of one signature shares layer 0, the tree and the key
# pair; the FORS trees differ only in their tree indices. So one prefix
# PK.seed || ADRS[:24] per address type serves all k trees.

def _fors_prefixes(pk_seed: bytes, tree: int, kp: int) -> tuple[bytes, bytes]:
    """The secret-key PRF prefix, which includes its height word 0, and
    the node prefix, to which each node appends its height and index."""
    return (pk_seed + _ADRS.pack(0, tree, _TYPE_FORS_PRF, kp, 0, 0)[:28],
            pk_seed + _ADRS.pack(0, tree, _TYPE_FORS_TREE, kp, 0, 0)[:24])


def _fors_sk(ps: ParameterSet, sk_seed: bytes, sk_prefix: bytes, idx: int) -> bytes:
    return hashlib.shake_256(sk_prefix + _U32.pack(idx) + sk_seed).digest(ps.n)


def _fors_node(ps: ParameterSet, sk_seed: bytes, sk_prefix: bytes, node_prefix: bytes,
               i: int, z: int) -> bytes:
    if z == 0:
        children = _fors_sk(ps, sk_seed, sk_prefix, i)
    else:
        children = (_fors_node(ps, sk_seed, sk_prefix, node_prefix, 2 * i, z - 1)
                    + _fors_node(ps, sk_seed, sk_prefix, node_prefix, 2 * i + 1, z - 1))
    return hashlib.shake_256(node_prefix + _WORDS[z] + _U32.pack(i) + children).digest(ps.n)


def _fors_indices(ps: ParameterSet, md: bytes) -> list[int]:
    """Split the digest into k indices of a bits each, left to right."""
    bits = int.from_bytes(md[:ps.md_bytes], "big")
    total = ps.md_bytes * 8
    out = []
    for i in range(ps.k):
        shift = total - (i + 1) * ps.a
        out.append((bits >> shift) & ((1 << ps.a) - 1))
    return out


def _fors_sign(ps: ParameterSet, md: bytes, sk_seed: bytes, pk_seed: bytes,
               tree: int, kp: int) -> bytes:
    sk_prefix, node_prefix = _fors_prefixes(pk_seed, tree, kp)
    out = []
    for i, idx in enumerate(_fors_indices(ps, md)):
        out.append(_fors_sk(ps, sk_seed, sk_prefix, (i << ps.a) + idx))
        for j in range(ps.a):
            sibling = (idx >> j) ^ 1
            out.append(_fors_node(ps, sk_seed, sk_prefix, node_prefix,
                                  (i << (ps.a - j)) + sibling, j))
    return b"".join(out)


def _fors_pk_from_sig(ps: ParameterSet, sig: bytes, md: bytes, pk_seed: bytes,
                      tree: int, kp: int) -> bytes:
    node_prefix = _fors_prefixes(pk_seed, tree, kp)[1]
    shake, n = hashlib.shake_256, ps.n
    roots = []
    offset = 0
    for i, idx in enumerate(_fors_indices(ps, md)):
        tree_index = (i << ps.a) + idx
        node = shake(node_prefix + _WORDS[0] + _U32.pack(tree_index)
                     + sig[offset:offset + n]).digest(n)
        offset += n
        for j in range(ps.a):
            sibling = sig[offset:offset + n]
            offset += n
            children = node + sibling if (idx >> j) & 1 == 0 else sibling + node
            tree_index >>= 1
            node = shake(node_prefix + _WORDS[j + 1] + _U32.pack(tree_index)
                         + children).digest(n)
        roots.append(node)
    adrs = _ADRS.pack(0, tree, _TYPE_FORS_ROOTS, kp, 0, 0)
    return shake(pk_seed + adrs + b"".join(roots)).digest(n)


# -- top level ----------------------------------------------------------

def keygen(ps: ParameterSet, seed: bytes) -> tuple[bytes, bytes]:
    """Derive (secret key, public key) from a 3n-byte seed."""
    if len(seed) != ps.seed_size:
        raise ValueError(f"seed must be {ps.seed_size} bytes, got {len(seed)}")
    sk_seed, sk_prf, pk_seed = seed[:ps.n], seed[ps.n:2 * ps.n], seed[2 * ps.n:]
    pk_root = _xmss_node(ps, sk_seed, pk_seed, 0, ps.hp, ps.d - 1, 0)
    return sk_seed + sk_prf + pk_seed + pk_root, pk_seed + pk_root


def _digest_split(ps: ParameterSet, digest: bytes) -> tuple[bytes, int, int]:
    md = digest[:ps.md_bytes]
    idx_tree = int.from_bytes(digest[ps.md_bytes:ps.md_bytes + ps.tree_bytes], "big")
    idx_tree &= (1 << (ps.h - ps.hp)) - 1
    idx_leaf = int.from_bytes(digest[ps.md_bytes + ps.tree_bytes:ps.m], "big")
    idx_leaf &= (1 << ps.hp) - 1
    return md, idx_tree, idx_leaf


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
    sk_seed = sk[:ps.n]
    sk_prf = sk[ps.n:2 * ps.n]
    pk_seed = sk[2 * ps.n:3 * ps.n]
    pk_root = sk[3 * ps.n:]

    if addrnd is not None:
        if len(addrnd) != ps.n:
            raise ValueError(f"addrnd must be {ps.n} bytes")
        opt_rand = bytes(addrnd)
    elif deterministic:
        opt_rand = pk_seed
    else:
        opt_rand = os.urandom(ps.n)

    m_prime = b"\x00" + bytes([len(ctx)]) + ctx + message
    r = _PRF_msg(ps, sk_prf, opt_rand, m_prime)
    md, idx_tree, idx_leaf = _digest_split(ps, _H_msg(ps, r, pk_seed, pk_root, m_prime))

    sig_fors = _fors_sign(ps, md, sk_seed, pk_seed, idx_tree, idx_leaf)
    pk_fors = _fors_pk_from_sig(ps, sig_fors, md, pk_seed, idx_tree, idx_leaf)
    sig_ht = _ht_sign(ps, pk_fors, sk_seed, pk_seed, idx_tree, idx_leaf)
    return r + sig_fors + sig_ht


def verify(ps: ParameterSet, message: bytes, signature: bytes, pk: bytes,
           ctx: bytes = b"") -> bool:
    if len(pk) != ps.pk_size or len(signature) != ps.sig_size or len(ctx) > 255:
        return False
    pk_seed, pk_root = pk[:ps.n], pk[ps.n:]
    m_prime = b"\x00" + bytes([len(ctx)]) + ctx + message

    r = signature[:ps.n]
    fors_size = ps.k * (1 + ps.a) * ps.n
    sig_fors = signature[ps.n:ps.n + fors_size]
    sig_ht = signature[ps.n + fors_size:]

    md, idx_tree, idx_leaf = _digest_split(ps, _H_msg(ps, r, pk_seed, pk_root, m_prime))
    pk_fors = _fors_pk_from_sig(ps, sig_fors, md, pk_seed, idx_tree, idx_leaf)
    return _ht_verify(ps, pk_fors, sig_ht, pk_seed, idx_tree, idx_leaf, pk_root)
