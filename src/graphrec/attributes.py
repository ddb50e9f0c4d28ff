"""Attribute tables: schemas, encoding, masking, and the missing-value machinery.

Attributes are grouped into fields. A single-label field is a one-hot block
(a classification target), a multi-label field is a multi-hot binary block.
Each entity either has a field fully observed or fully missing; the
observation indicator is therefore constant within a field's block.
Masking deletes whole (entity, field) observations; the pre-masking values
are kept as ``ground_truth`` for evaluation and are never visible to a model,
which reads only the observed ones (``ground_truth * indicator``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from operator import itemgetter

import numpy as np

FIELD_KINDS = ("single", "multi")


@dataclass(frozen=True)
class Field:
    name: str
    kind: str  # "single" | "multi"
    categories: tuple
    offset: int

    @property
    def cardinality(self):
        return len(self.categories)

    @property
    def block(self):
        return slice(self.offset, self.offset + self.cardinality)


def check_field(name, kind, categories):
    """Refuse a field declaration with an empty name, an unknown kind, or
    too few, repeated or empty categories."""
    if not name:
        raise ValueError("empty field name")
    if kind not in FIELD_KINDS:
        raise ValueError(f"field {name!r}: unknown kind {kind!r}")
    if kind == "single" and len(categories) < 2:
        raise ValueError(f"single-label field {name!r} needs >= 2 categories")
    if kind == "multi" and len(categories) < 1:
        raise ValueError(f"multi-label field {name!r} needs >= 1 category")
    if "" in categories or len(set(categories)) != len(categories):
        raise ValueError(f"field {name!r}: categories must be distinct and non-empty")


class AttributeSchema:
    """Ordered list of fields with contiguous, non-overlapping blocks."""

    def __init__(self, fields):
        self.fields = []
        offset = 0
        for name, kind, categories in fields:
            categories = tuple(categories)
            check_field(name, kind, categories)
            self.fields.append(Field(name, kind, categories, offset))
            offset += len(categories)
        self.total_dim = offset
        self._by_name = {f.name: f for f in self.fields}
        if len(self._by_name) != len(self.fields):
            raise ValueError("duplicate field names in schema")

    def __len__(self):
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __getitem__(self, name):
        return self._by_name[name]

    def __contains__(self, name):
        return name in self._by_name

    def to_dict(self):
        return {"fields": [[f.name, f.kind, list(f.categories)] for f in self.fields]}

    @classmethod
    def from_dict(cls, d):
        return cls([(n, k, c) for n, k, c in d["fields"]])


@dataclass
class AttributeTable:
    """Per-side observation indicator and held-out truth.

    indicator and ground_truth are (num_entities x total_dim) 0/1 arrays;
    :attr:`values`, what a model is given, is derived from them, as is each
    field's :meth:`observed` rows. ``masked`` is the (n, 2) int64 array of
    the (entity, field_index) pairs deleted by :func:`mask`, the attribute
    inference test set. A side without attributes is :meth:`empty`. A side
    other than "user" or "item" is refused.
    """

    schema: AttributeSchema
    side: str  # "user" | "item"
    indicator: np.ndarray
    ground_truth: np.ndarray
    masked: np.ndarray = dc_field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))

    def __post_init__(self):
        if self.side not in ("user", "item"):
            raise ValueError(f"side must be 'user' or 'item', got {self.side!r}")

    @classmethod
    def empty(cls, side, num_entities):
        """The table of a side without attributes: no fields, zero columns."""
        return cls(AttributeSchema([]), side, *np.zeros((2, num_entities, 0)))

    @property
    def values(self):
        """The observed values, zero elsewhere: ``ground_truth * indicator``,
        a new array on every read."""
        return self.ground_truth * self.indicator

    @property
    def num_entities(self):
        return self.indicator.shape[0]

    def observed(self, f):
        """(ids, values): the entities where field ``f`` is observed, ascending,
        and its block of ``ground_truth`` (equal to :attr:`values`) at them."""
        ids = np.flatnonzero(self.indicator[:, f.offset])
        return ids, self.ground_truth[ids, f.block]

    def masked_entities(self, name):
        """The entities of the ``masked`` pairs of field ``name``, an int64
        array in the order of ``masked``."""
        f_idx = self.schema.fields.index(self.schema[name])
        return self.masked[self.masked[:, 1] == f_idx, 0]


def encode(raw_records, schema, side="user"):
    """Encode per-entity field assignments into an :class:`AttributeTable`.

    ``raw_records`` is a list with one dict per entity mapping field name to
    a category index (single-label) or an iterable of category indices
    (multi-label). Fields absent from a record stay unobserved.
    """
    # one pass collects the (entity, column) cells set to 1 and the observed
    # (entity, field) pairs; each table is then filled by one assignment
    fields = {f.name: (k, f) for k, f in enumerate(schema)}
    rows, cols, pair_rows, pair_fields = [], [], [], []
    for e, record in enumerate(raw_records):
        for name, assignment in record.items():
            if name not in fields:
                raise ValueError(f"entity {e}: unknown field {name!r}")
            k, f = fields[name]
            if f.kind == "single":
                cats = [int(assignment)]
            else:
                cats = [int(c) for c in assignment]
            for c in cats:
                if not 0 <= c < f.cardinality:
                    raise ValueError(
                        f"entity {e}, field {name!r}: category {c} out of range "
                        f"(cardinality {f.cardinality})"
                    )
                rows.append(e)
                cols.append(f.offset + c)
            pair_rows.append(e)
            pair_fields.append(k)
    truth = np.zeros((len(raw_records), schema.total_dim))
    truth[rows, cols] = 1.0
    observed = np.zeros((len(raw_records), len(schema)))
    observed[pair_rows, pair_fields] = 1.0
    indicator = np.repeat(observed, [f.cardinality for f in schema], axis=1)
    return AttributeTable(schema, side, indicator, truth)


def mask(table, alpha, seed):
    """Randomly delete a fraction ``alpha`` of each field's observed values.

    For each field independently (seeded per field, deterministic), a
    uniformly random floor(alpha * num_entities)-size subset of entities has
    its indicator zeroed over the field's block, which zeroes its values
    there too. ground_truth is untouched. The deleted (entity, field) pairs
    that were observed follow the table's ``masked`` rows field by field,
    entities ascending; a chosen entity whose field was already missing is
    not listed.
    """
    check_alpha(alpha)
    check_seed("seed", seed)
    indicator = table.indicator.copy()
    masked = [table.masked]
    E = table.num_entities
    n_del = int(np.floor(alpha * E))
    for f_idx, f in enumerate(table.schema):
        rng = np.random.default_rng([int(seed), f_idx])
        chosen = np.sort(rng.choice(E, size=n_del, replace=False))
        observed = chosen[indicator[chosen, f.offset] == 1.0]
        masked.append(np.column_stack([observed, np.full_like(observed, f_idx)]))
        indicator[chosen, f.block] = 0.0
    return AttributeTable(table.schema, table.side, indicator, table.ground_truth.copy(),
                          np.concatenate(masked))


def check_alpha(alpha):
    """Refuse a mask rate outside [0, 1), NaN and None included."""
    if alpha is None or not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")


def check_seed(name, seed):
    """Refuse a seed ``name`` that is not a non-negative integer (a bool is not)."""
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"{name} must be a non-negative integer, got {seed!r}")


def init_missing(table):
    """Fill missing entries with per-dimension observed means.

    Observed entries are copied through; each missing entry in dimension f is
    set to the mean of that dimension over observed entities. A dimension
    with zero observed entities has no mean and raises ``ValueError``.
    """
    obs_count = table.indicator.sum(axis=0)
    if (obs_count == 0).any():
        raise ValueError(f"attribute dimension {int(np.argmax(obs_count == 0))} "
                         "has no observed entities")
    values = table.values
    return values + values.sum(axis=0) / obs_count * (1.0 - table.indicator)


def apply_update(current, inferred, table):
    """Write inferred values into missing positions, keep observed ones.

    Returns ``current * indicator + inferred * (1 - indicator)`` elementwise.
    """
    current = np.asarray(current)
    inferred = np.asarray(inferred)
    if current.shape != inferred.shape or current.shape != table.indicator.shape:
        raise ValueError(
            f"shape mismatch: current {current.shape}, inferred {inferred.shape}, "
            f"indicator {table.indicator.shape}"
        )
    A = table.indicator
    return current * A + inferred * (1.0 - A)


# ---------------------------------------------------------------------------
# File formats
#
# Schema file: one field per line, `name<sep>kind<sep>cat1|cat2|...`
# Attribute file: one entity per line, `entity_id<sep>field=value[<sep>...]`,
# multi-label values separated by "|". <sep> is tab or comma (auto-detected).
# ---------------------------------------------------------------------------

def read_lines(path, encoding=None):
    """``(line number, stripped line)`` of every line of ``path`` that is
    neither blank nor a ``#`` comment. A leading byte-order mark is dropped,
    and a NUL character anywhere is refused naming ``path:line``. For speed
    the lines are numbered and blanks dropped in C, and comments looked for
    only if a ``#`` occurs."""
    with open(path, encoding=encoding) as fh:
        text = fh.read().removeprefix("\ufeff")
    if "\x00" in text:
        lineno = text.count("\n", 0, text.index("\x00")) + 1
        raise ValueError(f"{path}:{lineno}: NUL character")
    kept = filter(itemgetter(1), enumerate(map(str.strip, text.split("\n")), 1))
    return [pair for pair in kept if pair[1][0] != "#"] if "#" in text else list(kept)


def _detect_sep(line):
    return "\t" if "\t" in line else ","


def read_keyed(path, what, sep, parse, encoding=None):
    """``{key: record}`` of a file with one line per key, in line order. Each
    line of :func:`read_lines` is split at ``sep`` (a string, or a function
    of the line giving one) into stripped fields, and ``parse(fields, line,
    lineno)`` gives its ``(key, record)``, or None to drop it unchecked. A key
    an earlier line gave is refused, naming that line; every refusal,
    ``parse``'s too, is a ``ValueError`` naming ``path:line``."""
    records, first_line = {}, {}
    for lineno, line in read_lines(path, encoding):
        fields = list(map(str.strip, line.split(sep if isinstance(sep, str) else sep(line))))
        try:
            if (parsed := parse(fields, line, lineno)) is None:
                continue
            key, record = parsed
            if first_line.setdefault(key, lineno) != lineno:
                raise ValueError(f"{what} {key!r} already given on line {first_line[key]}")
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
        records[key] = record
    return records


def _schema_field(fields, line, lineno):
    if len(fields) != 3:
        raise ValueError("expected name, kind, categories")
    categories = [c.strip() for c in fields[2].split("|")]
    check_field(fields[0], fields[1], categories)
    return fields[0], (fields[1], categories)


def load_schema(path):
    """Read an ordered field-declaration file into an :class:`AttributeSchema`.
    A line that is not a valid field (:func:`check_field`) is refused naming
    ``path:line``, and a repeated name also names the line that first gave it."""
    fields = read_keyed(path, "field", _detect_sep, _schema_field)
    if not fields:
        raise ValueError(f"{path}: empty schema file")
    return AttributeSchema([(name, kind, cats) for name, (kind, cats) in fields.items()])


def load_attributes(path, schema, ids, side="user"):
    """Read an attribute file and encode it against ``schema``.

    Entity ``ids[k]`` is row k of the table; lines for other entities
    (filtered out upstream) are skipped. Category values are looked
    up in each field's vocabulary. An entity has one line, and a field one
    value on it: a repeat raises ``ValueError`` naming both lines. A
    single-label field given several categories, and a line without its id
    (a first field that is empty or holds ``=``), raise one naming the line.
    """
    def parse(parts, line, lineno):
        if not parts[0] or "=" in parts[0]:
            raise ValueError(f"expected an entity id first, got {parts[0]!r}")
        if parts[0] not in id_map:
            return None
        record = {}
        for item in parts[1:]:
            if "=" not in item:
                raise ValueError(f"expected field=value, got {item!r}")
            name, raw = map(str.strip, item.split("=", 1))
            if name not in schema:
                raise ValueError(f"unknown field {name!r}")
            if name in record:  # the entity's one line gave it already
                raise ValueError(f"field {name!r} already given on line {lineno}")
            f = schema[name]
            vals = [v.strip() for v in raw.split("|")]
            try:
                idxs = [f.categories.index(v) for v in vals]
            except ValueError:
                raise ValueError(f"field {name!r} has no category among {vals}") from None
            if f.kind == "single" and len(idxs) > 1:
                raise ValueError(f"single-label field {name!r} given several values {vals}")
            record[name] = idxs[0] if f.kind == "single" else idxs
        return parts[0], record

    id_map = {eid: idx for idx, eid in enumerate(ids)}
    records = [{}] * len(ids)  # read only: an entity without a line has none
    for entity, record in read_keyed(path, "id", _detect_sep, parse).items():
        records[id_map[entity]] = record
    return encode(records, schema, side=side)
