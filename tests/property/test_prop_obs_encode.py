"""Property test: the prebuilt trace encoder is byte-identical to
``json.dumps(..., sort_keys=True, separators=(",", ":"))``.

``repro.obs.events.encode_event`` builds its C encoder once at import
instead of once per event.  Golden traces stay byte-stable only if, for
*any* flat event dict of scalars, both paths agree byte for byte —
including non-finite floats, huge ints, ``numpy.float64`` (a ``float``
subclass) and strings full of quotes, backslashes, control characters,
lone surrogates and non-ASCII text.
"""

import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.events import encode_event

texts = st.text(
    alphabet=st.characters(exclude_categories=()), max_size=16
) | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", " ", "\ud800", "é"])

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.floats().map(np.float64),
    texts,
)

flat_events = st.dictionaries(texts, scalars, max_size=8)


@given(flat_events)
def test_encode_event_matches_json_dumps(event):
    assert encode_event(event) == json.dumps(
        event, sort_keys=True, separators=(",", ":")
    )

