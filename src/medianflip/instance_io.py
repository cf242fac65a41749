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
    """Write the canonical document; undirected edges are stored once."""
    net = instance.network
    keep = slice(None) if net.directed else net.arc_src <= net.arc_dst
    doc = {
        "n": int(net.node_count),
        "directed": bool(net.directed),
        "edges": list(zip(net.arc_src[keep].tolist(),
                          net.arc_dst[keep].tolist(),
                          net.arc_w[keep].tolist())),
        "alpha": instance.alpha.tolist(),
        "s": instance.s.tolist(),
    }
    # json.dumps runs the C encoder; json.dump streams through the
    # pure-Python one
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


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
    network = build_network(int(n), doc["edges"], directed=directed,
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


def load_edge_list(edges_path, opinions_path, directed=False):
    """Instance from an edge-list file ("u v" or "u v w" lines) plus an
    opinions file ("id s" or "id s alpha" lines).

    Node ids are remapped to 0..n-1 in sorted order. Every edge endpoint
    must have an opinion line; ids with opinions but no edges become
    isolated nodes.
    """
    edge_rows = _parse_rows(edges_path, 2, 3)
    opinion_rows = _parse_rows(opinions_path, 2, 3)

    s_by_id, alpha_by_id = {}, {}
    for lineno, values in opinion_rows:
        node = int(values[0])
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

    for lineno, values in edge_rows:
        for endpoint in (int(values[0]), int(values[1])):
            if endpoint not in s_by_id:
                raise InstanceIOError(
                    f"{edges_path}:{lineno}: node {endpoint} has no opinion "
                    f"entry"
                )

    ids = sorted(s_by_id)
    index = {node: i for i, node in enumerate(ids)}
    edges = [
        (index[int(v[0])], index[int(v[1])], v[2] if len(v) == 3 else 1.0)
        for _, v in edge_rows
    ]
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
