"""JSON text as a reader may receive it from outside the program, for the
property tests of the log and report readers.

``JSON_TEXTS`` is the text of any JSON value, biased towards the readers'
edges: integers past float range, non-finite floats, wrong types, plus two
texts that no Python value dumps to, an integer past the decoder's 4 300-digit
limit and a list nested thousands deep."""

import json

from hypothesis import strategies as st

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers()
    | st.integers(18, 400).map(lambda k: 10**k)
    | st.floats()
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
JSON_TEXTS = (
    JSON_VALUES.map(json.dumps)
    | st.just("1" * 5000)
    | st.integers(1, 5000).map(lambda depth: "[" * depth + "]" * depth)
)
