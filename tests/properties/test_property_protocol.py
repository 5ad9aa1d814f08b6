"""Fuzz the service's protocol boundary with arbitrary JSON-shaped documents.

Whatever a client sends, :func:`validate_request` /
:func:`validate_graph_document` followed by :func:`build_instance` may only
fail with :class:`~repro.exceptions.RequestValidationError` — the error the
server maps to HTTP 400.  Any other exception would surface as a dropped
connection (handler thread) or a 500 (worker).  Pure functions, no sockets.

The strategies mix fully arbitrary JSON values with near-valid documents
(known field names, plausible vertex ids and label maps) so that generated
documents get past the first type checks and reach ``build_instance``.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import RequestValidationError
from repro.service.protocol import (
    DEFAULT_PARAMS,
    build_instance,
    validate_graph_document,
    validate_request,
)

pytestmark = pytest.mark.properties

# json.loads accepts NaN and Infinity, so the boundary must too.
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=10,
)
# Boundary values a corruption favours (2:1) over arbitrary JSON.
_EDGE_CASES = st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), -1, 2**70, 1.5, "", "x",
     True, None, [], {}, [[]], {"": 0}]
)

_IDS = st.integers(0, 6)
_DISCRETE = st.fixed_dictionaries({
    "type": st.just("discrete"),
    "probabilities": st.sampled_from([[0.5, 0.5], [0.25, 0.25, 0.5]]),
    "assignment": st.dictionaries(_IDS.map(str), st.integers(0, 1)),
})
_CONTINUOUS = st.fixed_dictionaries({
    "type": st.just("continuous"),
    "scores": st.dictionaries(
        _IDS.map(str), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=1)
    ),
})
_INSTANCE = {
    "graph": st.fixed_dictionaries({
        "edges": st.lists(st.lists(_IDS, min_size=2, max_size=2), max_size=8),
        "vertices": st.lists(_IDS, max_size=3),
    }),
    "labels": _DISCRETE | _CONTINUOUS,
    "vertex_type": st.sampled_from(["int", "str"]),
}
_REQUEST = dict(
    _INSTANCE,
    params=st.dictionaries(
        st.sampled_from(sorted(DEFAULT_PARAMS)),
        st.integers(1, 30) | st.booleans()
        | st.sampled_from(["none", "bounds", "auto", "naive", "fwer"]),
        max_size=3,
    ),
    deadline_seconds=st.floats(0.5, 60.0),
    trace=st.booleans(),
)


def _paths(value):
    """Every (container, key) position inside a nested JSON value."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return []
    found = []
    for key, child in items:
        found.append((value, key))
        found.extend(_paths(child))
    return found


@st.composite
def _near_valid(draw, fields):
    """A well-formed document with up to three positions corrupted.

    A corruption replaces any nested value with arbitrary JSON, or deletes
    it, so every field's type checks are exercised one at a time while the
    rest of the document stays valid enough to reach ``build_instance``.
    """
    doc = copy.deepcopy({
        name: draw(strategy)
        for name, strategy in fields.items()
        if name in ("graph", "labels") or draw(st.booleans())
    })
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(_paths(doc)))
        if draw(st.booleans()) and isinstance(container, dict):
            del container[key]
        else:
            container[key] = copy.deepcopy(
                draw(_EDGE_CASES | _EDGE_CASES | _JSON)
            )
        if not doc:
            break
    return doc


_FUZZ = settings(
    max_examples=500, suppress_health_check=[HealthCheck.too_slow]
)


@_FUZZ
@given(_near_valid(_REQUEST) | _JSON)
def test_mine_request_only_fails_with_validation_errors(doc):
    try:
        build_instance(validate_request(doc))
    except RequestValidationError:
        pass


@_FUZZ
@given(_near_valid(_INSTANCE) | _JSON)
def test_graph_upload_only_fails_with_validation_errors(doc):
    try:
        build_instance(validate_graph_document(doc))
    except RequestValidationError:
        pass
