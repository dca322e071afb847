"""The reference for semschema's number output, and JSON number texts to check it with.

`reference_dumps` is how `jsonmodel.dumps` wrote a value when it copied
the whole tree before encoding it: a finite float with an integral value
of magnitude at most 2**53 became an int, so `2.0` and `-0.0` printed as
`2` and `0`, and NaN or infinity was refused.  `dumps` now encodes the
value as it is, and the numbers are made canonical where they are made;
the tests hold the two against each other.
"""

import json
import math

from hypothesis import strategies as st

_MAX_EXACT_INT = 2**53


def reference_normalize(value):
    if isinstance(value, (str, int)) or value is None:  # bool is an int
        return value
    if isinstance(value, dict):
        return {k: reference_normalize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [reference_normalize(v) for v in value]
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError("cannot serialize NaN or infinity")
        if value.is_integer() and abs(value) <= _MAX_EXACT_INT:
            return int(value)
    return value


def reference_dumps(value, indent=None) -> str:
    """`value` written as the tree copy and the stdlib encoder wrote it, compact or indented."""
    value = reference_normalize(value)
    if indent is None:
        return json.dumps(value, ensure_ascii=False, separators=(",", ":"))
    return json.dumps(value, indent=indent, separators=(",", ": "), ensure_ascii=False)


# number texts whose value or form matters: integral floats in every
# spelling, negative zero, and the neighbours of 2**53 on both sides
NUMBER_TEXTS = (
    "2.0", "-0.0", "0.0", "1E2", "10e-1", "-3.0e2", "4.5E+3", "1e16", "9007199254740993", "9007199254740992.0",
    "-9007199254740992.0", "9007199254740994.0", "0.5", "-1.25e-7", "123.456", "1e-320", "1.5e-400",
)

number_texts = (
    st.sampled_from(NUMBER_TEXTS)
    | st.integers().map(str)
    | st.integers(min_value=-(2**60), max_value=2**60).map("{}.0".format)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.floats(allow_nan=False, allow_infinity=False).map("{:E}".format)
)

json_texts = st.recursive(
    number_texts
    | st.sampled_from(("true", "false", "null"))
    | st.text(max_size=8).map(lambda s: json.dumps(s, ensure_ascii=False)),
    lambda children: st.lists(children, max_size=4).map(lambda items: "[" + ", ".join(items) + "]")
    | st.dictionaries(st.text(max_size=6), children, max_size=4).map(
        lambda d: "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in d.items()) + "}"
    ),
    max_leaves=20,
)
