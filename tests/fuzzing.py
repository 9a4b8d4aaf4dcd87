"""Shared pieces of the derandomized hypothesis fuzz tests: every path into
a JSON document, a strategy for arbitrary JSON values, and a one-value
mutation of a document."""

import copy

from hypothesis import strategies as st

# numbers at the edges of what a loader must bound: past the largest exact
# float integer, past the float range, negative zero, the largest and the
# smallest positive float
BOUNDARY_NUMBERS = st.sampled_from([2**53, 2**53 + 1, 10**400, -1, -0.0, 1e308, 5e-324])

# the boundary numbers are also a top-level branch of their own, so that a
# replaced scalar (a leaf count, a weight) is often one of them
JSON_VALUES = BOUNDARY_NUMBERS | st.recursive(
    st.none() | st.booleans() | st.integers() | BOUNDARY_NUMBERS
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=12), children, max_size=3),
    max_leaves=6,
)


def key_paths(node, prefix=()):
    """The key path of ``node`` and of every value nested in it."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from key_paths(child, prefix + (key,))


def mutate_one_value(data, doc, path):
    """A copy of ``doc`` with the value at ``path`` replaced or dropped, or
    with a value added inside it, as drawn from ``data``."""
    doc = copy.deepcopy(doc)
    action = data.draw(st.sampled_from(["replace", "drop", "add"]))
    value = data.draw(JSON_VALUES)
    parent, last, node = None, None, doc
    for key in path:
        parent, last, node = node, key, node[key]
    if action == "add" and isinstance(node, dict):
        node[data.draw(st.text(max_size=12))] = value
    elif action == "add" and isinstance(node, list):
        node.append(value)
    elif action == "drop" and parent is not None:
        del parent[last]
    elif parent is not None:
        parent[last] = value
    else:
        doc = value
    return doc
