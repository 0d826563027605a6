"""The text of json.dumps(obj, indent=2) for fixed-shape objects, with the
scalar leaves encoded in one call into the C encoder.

With indent set, json.dumps runs CPython's pure-Python encoder, call by call
per value; without it, the C encoder.  Here a writer collects the scalar
leaves (str, int, float, bool, None) in document order, encodes them at once
with leaf_texts (a long array of records, block by block), and joins the
encoded texts under fixed key lines.

The separator: json.dumps(leaves, separators=("\\x1f", ":")) puts a raw
U+001F between consecutive leaves only.  The encoder writes every control
character inside a string as an escape (\\u001f), with ensure_ascii or
without, and a number, true, false or null holds none; so splitting the
text at U+001F gives back each leaf's own text, whatever the strings hold.
"""

import json
from itertools import chain, islice

_SEP = "\x1f"
_BLOCK = 256  # records per C-encoder call in dump_object_array: bounds the texts held


def leaf_texts(leaves: list) -> list[str]:
    """[json.dumps(leaf) for leaf in leaves], from one C-encoder call.
    Every leaf must be a scalar: a list or dict leaf would be split apart."""
    if not leaves:
        return []
    return json.dumps(leaves, separators=(_SEP, ":"))[1:-1].split(_SEP)


def object_writer(keys, depth: int):
    """A function from the texts of consecutive objects' values, object after
    object and in `keys` order, to the list of their texts as json.dumps(obj,
    indent=2) writes them nested `depth` levels deep, each object one
    `template % values` (the keys' own % doubled).  `keys` must not be
    empty; a value's text is used as given, so it may be a nested text."""
    pad = "  " * (depth + 1)
    lines = (pad + json.dumps(key).replace("%", "%%") + ": %s" for key in keys)
    template = "{\n" + ",\n".join(lines) + "\n" + "  " * depth + "}"
    width = len(keys)

    def write(texts: list[str]) -> list[str]:
        return list(map(template.__mod__, zip(*(texts[k::width] for k in range(width)))))
    return write


def array_text(items: list[str], depth: int) -> str:
    """json.dumps(list, indent=2) nested `depth` levels deep, from the texts
    of its items."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def dump_object_array(fh, keys, records) -> None:
    """json.dump([dict(zip(keys, rec)) for rec in records], fh, indent=2),
    byte for byte, for records of scalars.  The leaves of each block of
    _BLOCK records go through one C-encoder call, and only that block's
    texts are held at a time."""
    write = object_writer(keys, 1)
    records = iter(records)
    head = "[\n  "
    while block := list(chain.from_iterable(islice(records, _BLOCK))):
        fh.write(head + ",\n  ".join(write(leaf_texts(block))))
        head = ",\n  "
    fh.write("[]" if head == "[\n  " else "\n]")
