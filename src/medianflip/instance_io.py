"""Instance serialization: a canonical JSON document for exact
round-trips, and a loader for real-dataset pairs of edge-list plus
opinion files with the usual defaults (alpha = 0.5, weight = 1)."""

import json
from collections import namedtuple

import numpy as np

from .equilibrium import equilibrium
from .network import Instance, build_network
from .stats import mean, median


class InstanceIOError(ValueError):
    pass


def save_instance(instance, path):
    """Write the canonical document: the bytes json.dump gives for
    {"n", "directed", "edges", "alpha", "s"} in that key order, then a
    newline. "edges" lists the arcs in arc order as [u, v, w] rows,
    each undirected edge once with u <= v; floats are Python reprs.

    json's C encoder writes the document with an empty edge list, and
    one list each for alpha and s; the edge rows are built in one byte
    array, with no Python object per row, and spliced in.
    """
    net = instance.network
    keep = slice(None) if net.directed else net.arc_src <= net.arc_dst
    doc = json.dumps({"n": net.node_count, "directed": bool(net.directed),
                      "edges": [], "alpha": instance.alpha.tolist(),
                      "s": instance.s.tolist()}).encode()
    cut = doc.index(b"[") + 1  # inside the empty edge list
    with open(path, "wb") as fh:
        fh.write(b"".join((doc[:cut], _edge_rows(
            net.arc_src[keep], net.arc_dst[keep], net.arc_w[keep]),
            doc[cut:], b"\n")))


def _edge_rows(src, dst, w):
    """The rows [u, v, w] joined by ", ", as json writes them, in a
    uint8 array.

    Each row is first written into a fixed-width record whose fields
    are padded with NUL bytes: the ids' decimal digits, least
    significant first, with their leading zeros as padding, and the
    repr of each distinct weight, formatted once and gathered to its
    rows. Dropping every NUL then leaves the text.
    """
    if not len(src):
        return b""
    # a few distinct weights are the rule, and searchsorted finds them
    # faster than unique's inverse
    weights = np.unique(w)
    which = np.searchsorted(weights, w)
    reprs = np.array([repr(x).encode() for x in weights.tolist()])
    ids = np.array((src, dst), np.uint32).T  # MAX_NODES < 2**32
    digits = len(str(ids.max()))
    pad = b"\0" * digits
    layout = b"[%s, %s, %s], " % (pad, pad, b"\0" * reprs.itemsize)
    rows = np.empty((len(src), len(layout)), np.uint8)
    rows[:] = np.frombuffer(layout, np.uint8)
    for col in range(digits, 0, -1):
        rest = ids // 10
        char = ids + ord("0") - 10 * rest
        if col < digits:
            char *= ids != 0  # a leading zero
        # the digit's column in the u field and in the v field
        rows[:, col:col + digits + 3:digits + 2] = char
        ids = rest
    # mode="clip" writes straight into the strided out; which is in range
    np.take(reprs.view(np.uint8).reshape(len(weights), -1), which, axis=0,
            out=rows[:, 2 * digits + 5:-3], mode="clip")
    text = rows.ravel()
    return text[text != 0][:-2]


def read_json_object(path):
    """The JSON object in the file at path; invalid JSON or a document
    of another kind is an InstanceIOError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceIOError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceIOError(f"{path}: not a JSON object")
    return doc


def load_instance(path):
    """Instance from the canonical document that save_instance writes.
    Edge-list and opinion file pairs are read by load_edge_list."""
    doc = read_json_object(path)
    missing = {"n", "directed", "edges", "alpha", "s"} - set(doc)
    if missing:
        raise InstanceIOError(f"{path}: missing fields {sorted(missing)}")
    n, directed = doc["n"], doc["directed"]
    if not isinstance(directed, bool):
        raise InstanceIOError(f"{path}: 'directed' is not a boolean")
    if type(n) not in (int, float) or n % 1:  # bool, NaN and 3.9 fail
        raise InstanceIOError(f"{path}: 'n' is not an integer: {n!r}")
    n = int(n)
    # checked before the network of n nodes is allocated
    for name in ("alpha", "s"):
        values = doc[name]
        if not isinstance(values, list) or len(values) != n:
            got = (f"{len(values)} entries" if isinstance(values, list)
                   else "no list")
            raise InstanceIOError(
                f"{path}: '{name}' must list n = {n} entries, got {got}")
    network = build_network(n, doc["edges"], directed=directed,
                            allow_self_loops=True)
    return Instance(network, np.asarray(doc["alpha"], dtype=float),
                    np.asarray(doc["s"], dtype=float))


def _parse_rows(path, min_fields, max_fields):
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            fields = body.split()
            if not (min_fields <= len(fields) <= max_fields):
                raise InstanceIOError(
                    f"{path}:{lineno}: expected {min_fields} to "
                    f"{max_fields} fields, got {len(fields)}"
                )
            try:
                values = [float(f) for f in fields]
            except ValueError as exc:
                raise InstanceIOError(
                    f"{path}:{lineno}: non-numeric field: {exc}"
                ) from exc
            rows.append((lineno, values))
    return rows


def _node_id(path, lineno, value):
    if value % 1:  # fractions, inf and NaN fail
        raise InstanceIOError(
            f"{path}:{lineno}: node id {value} is not an integer")
    return int(value)


def load_edge_list(edges_path, opinions_path, directed=False):
    """Instance from an edge-list file ("u v" or "u v w" lines) plus an
    opinions file ("id s" or "id s alpha" lines).

    Node ids are integers, remapped to 0..n-1 in sorted order. Every
    edge endpoint must have an opinion line; ids with opinions but no
    edges become isolated nodes.
    """
    edge_rows = _parse_rows(edges_path, 2, 3)
    opinion_rows = _parse_rows(opinions_path, 2, 3)

    s_by_id, alpha_by_id = {}, {}
    for lineno, values in opinion_rows:
        node = _node_id(opinions_path, lineno, values[0])
        if node in s_by_id:
            raise InstanceIOError(
                f"{opinions_path}:{lineno}: duplicate opinion for node {node}"
            )
        opinion = values[1]
        if not (0.0 <= opinion <= 1.0):
            raise InstanceIOError(
                f"{opinions_path}:{lineno}: opinion {opinion} outside [0, 1]"
            )
        s_by_id[node] = opinion
        if len(values) == 3:
            resist = values[2]
            if not (0.0 <= resist <= 1.0):
                raise InstanceIOError(
                    f"{opinions_path}:{lineno}: alpha {resist} outside [0, 1]"
                )
            alpha_by_id[node] = resist

    rows = []
    for lineno, values in edge_rows:
        u, v = (_node_id(edges_path, lineno, f) for f in values[:2])
        for endpoint in (u, v):
            if endpoint not in s_by_id:
                raise InstanceIOError(
                    f"{edges_path}:{lineno}: node {endpoint} has no opinion "
                    f"entry"
                )
        rows.append((u, v, values[2] if len(values) == 3 else 1.0))

    ids = sorted(s_by_id)
    index = {node: i for i, node in enumerate(ids)}
    edges = [(index[u], index[v], w) for u, v, w in rows]
    network = build_network(len(ids), edges, directed=directed,
                            allow_self_loops=True)
    s = np.array([s_by_id[node] for node in ids])
    alpha = np.array([alpha_by_id.get(node, 0.5) for node in ids])
    return Instance(network, alpha, s)


InstanceStats = namedtuple("InstanceStats", "n m median mean")


def instance_stats(instance):
    """(n, m, equilibrium median, equilibrium mean) for an instance."""
    x = equilibrium(instance).x_star
    return InstanceStats(
        instance.network.node_count,
        instance.network.edge_count,
        median(x),
        mean(x),
    )
