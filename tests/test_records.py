"""The record types' value semantics, pinned on fixed values.

Each of the twelve record types that ``preprocess``, ``scales`` and
``adjust`` load, the lattice's ``FormalConcept``, ``ConceptSet``,
``Implication`` and ``ImplicationBase``, and the knowledge experiment's
``ExperimentConfig``, ``RepetitionRecord`` and ``ExperimentResult``, is an
immutable value: built from its fields positionally or
by keyword, equal only to a record of its own type with equal fields, hashed
as the tuple of its fields, shown as ``Name(field=value, ...)`` (a
``ConceptSet`` as its size), refusing to set or delete any attribute, and
surviving pickle and copy.  An ``Implication`` stores its premise and
conclusion sorted and without duplicates, and a ``ConceptSet`` its concepts
without duplicates and sorted by intent.  Class keywords give a record's
trailing fields defaults, as ``ExperimentConfig``'s.
"""

import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from contrascale.adjust import AdjustedSelection, AttributeInfluence, CubicSet, InfluenceReport
from contrascale.bench import ExperimentConfig, ExperimentResult, RepetitionRecord
from contrascale.context import (
    ClarificationMap,
    FormalContext,
    ReductionTrace,
    SubcontextSelection,
    _Record,
)
from contrascale.lattice import ConceptSet, FormalConcept, Implication, ImplicationBase
from contrascale.scales import (
    BipartiteGraph,
    ConflictGraph,
    ContranominalScale,
    ScaleCount,
    ScaleFamily,
)

_CTX = FormalContext(["g0", "g1"], ["m0", "m1"], [[1, 0], [0, 1]])
_INFLUENCE = AttributeInfluence(0, "m0", {2: 1}, Fraction(2))
_REPORT = InfluenceReport((_INFLUENCE,))
_CONFIG = ExperimentConfig(7, Fraction(1, 3), 5, 0.25, "sampled")
_CONFIG_REPR = (
    "ExperimentConfig(seed=7, delta=Fraction(1, 3), repetitions=5, split_fraction=0.25,"
    " method='sampled')"
)
_REPETITION = RepetitionRecord(0, 4, (0, 1), 0.5)
_REPETITION_REPR = "RepetitionRecord(index=0, label_attribute=4, features=(0, 1), accuracy=0.5)"

# (type, field names in order, field values, repr)
_CASES = [
    (
        SubcontextSelection,
        ("parent", "object_indices", "attribute_indices"),
        (_CTX, (0, 1), (1,)),
        "SubcontextSelection(parent=FormalContext(2 objects, 2 attributes, density=0.500),"
        " object_indices=(0, 1), attribute_indices=(1,))",
    ),
    (
        ClarificationMap,
        ("object_classes", "attribute_classes"),
        (((0, 2), (1,)), ((0,), (1, 3))),
        "ClarificationMap(object_classes=((0, 2), (1,)), attribute_classes=((0,), (1, 3)))",
    ),
    (
        ReductionTrace,
        ("removed_attributes", "removed_objects"),
        (((2, (0, 1)),), ((3, (1,)),)),
        "ReductionTrace(removed_attributes=((2, (0, 1)),), removed_objects=((3, (1,)),))",
    ),
    (
        ContranominalScale,
        ("pairs",),
        (((1, 0), (0, 1)),),
        "ContranominalScale(pairs=((1, 0), (0, 1)))",
    ),
    (
        ScaleFamily,
        ("attributes", "witness_masks"),
        ((0, 1), (2, 1)),
        "ScaleFamily(attributes=(0, 1), witness_masks=(2, 1))",
    ),
    (
        ScaleCount,
        ("total", "histogram", "max_dimension"),
        (3, {1: 2, 2: 1}, 2),
        "ScaleCount(total=3, histogram={1: 2, 2: 1}, max_dimension=2)",
    ),
    (
        ConflictGraph,
        ("vertices", "edges"),
        (((0, 1), (1, 0)), ((0, 1),)),
        "ConflictGraph(vertices=((0, 1), (1, 0)), edges=((0, 1),))",
    ),
    (
        BipartiteGraph,
        ("left", "right", "edges"),
        (("g0", "g1"), ("m0", "m1"), ((0, 1), (1, 0))),
        "BipartiteGraph(left=('g0', 'g1'), right=('m0', 'm1'), edges=((0, 1), (1, 0)))",
    ),
    (
        CubicSet,
        ("attributes", "dimension", "witnesses"),
        ((0, 1), 2, ((1,), (0,))),
        "CubicSet(attributes=(0, 1), dimension=2, witnesses=((1,), (0,)))",
    ),
    (
        AttributeInfluence,
        ("attribute", "label", "cubic_counts", "zeta_exact"),
        (0, "m0", {2: 1}, Fraction(2)),
        "AttributeInfluence(attribute=0, label='m0', cubic_counts={2: 1},"
        " zeta_exact=Fraction(2, 1))",
    ),
    (
        InfluenceReport,
        ("per_attribute",),
        ((_INFLUENCE,),),
        "InfluenceReport(per_attribute=(AttributeInfluence(attribute=0, label='m0',"
        " cubic_counts={2: 1}, zeta_exact=Fraction(2, 1)),))",
    ),
    (
        AdjustedSelection,
        ("delta", "attributes", "report"),
        (0.5, (0,), _REPORT),
        "AdjustedSelection(delta=0.5, attributes=(0,), report=InfluenceReport("
        "per_attribute=(AttributeInfluence(attribute=0, label='m0', cubic_counts={2: 1},"
        " zeta_exact=Fraction(2, 1)),)))",
    ),
    (
        FormalConcept,
        ("extent", "intent"),
        ((0, 2), (1,)),
        "FormalConcept(extent=(0, 2), intent=(1,))",
    ),
    (
        Implication,
        ("premise", "conclusion"),
        ((0, 3), (1, 2)),
        "Implication(premise=(0, 3), conclusion=(1, 2))",
    ),
    (
        ConceptSet,
        ("concepts",),
        ((FormalConcept((0, 1), ()), FormalConcept((1,), (1,))),),
        "ConceptSet(2 concepts)",
    ),
    (
        ImplicationBase,
        ("implications", "concepts"),
        ((Implication((0,), (1,)),), 3),
        "ImplicationBase(implications=(Implication(premise=(0,), conclusion=(1,)),),"
        " concepts=3)",
    ),
    (
        ExperimentConfig,
        ("seed", "delta", "repetitions", "split_fraction", "method"),
        (7, Fraction(1, 3), 5, 0.25, "sampled"),
        _CONFIG_REPR,
    ),
    (
        RepetitionRecord,
        ("index", "label_attribute", "features", "accuracy"),
        (0, 4, (0, 1), 0.5),
        _REPETITION_REPR,
    ),
    (
        ExperimentResult,
        ("config", "mean_accuracy", "std_accuracy", "concept_count", "base_size", "repetitions"),
        (_CONFIG, 0.5, 0.0, 3, 1.5, (_REPETITION,)),
        f"ExperimentResult(config={_CONFIG_REPR}, mean_accuracy=0.5, std_accuracy=0.0,"
        f" concept_count=3, base_size=1.5, repetitions=({_REPETITION_REPR},))",
    ),
]

# A dict field, here or inside a nested record, makes the field tuple unhashable.
_UNHASHABLE = {ScaleCount, AttributeInfluence, InfluenceReport, AdjustedSelection}

# These store a sorted, duplicate-free copy of each field, not the value given.
_NORMALISED = {Implication, ConceptSet}

# A last field to tell each case apart by, where a type refuses ().
_OTHER_LAST = {ExperimentConfig: "adjusted"}

_IDS = [case[0].__name__ for case in _CASES]


def _records(case):
    cls, names, values, _ = case
    return cls(*values), cls(**dict(zip(names, values)))


@pytest.mark.parametrize("case", _CASES, ids=_IDS)
def test_positional_and_keyword_construction_agree(case):
    cls, names, values, _ = case
    for record in _records(case):
        assert type(record) is cls
        assert tuple(getattr(record, name) for name in names) == values
        if cls not in _NORMALISED:
            assert all(getattr(record, name) is value for name, value in zip(names, values))
    mixed = cls(values[0], **dict(zip(names[1:], values[1:])))
    assert mixed == cls(*values)


@pytest.mark.parametrize("case", _CASES, ids=_IDS)
def test_construction_needs_every_field_once(case):
    cls, names, values, _ = case
    # Only the fields before those with defaults are needed.
    required = len(names) - len(cls.__init__.__defaults__)
    with pytest.raises(TypeError):
        cls(*values[:required - 1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, no_such_field=None)


@pytest.mark.parametrize("case", _CASES, ids=_IDS)
def test_positional_match_patterns_bind_the_fields_in_order(case):
    cls, names, values, _ = case
    assert cls.__match_args__ == names
    match cls(*values):
        case cls(first) if first is values[0] or cls in _NORMALISED and first == values[0]:
            pass
        case _:
            pytest.fail("the first positional pattern did not bind the first field")


@pytest.mark.parametrize("case", _CASES, ids=_IDS)
def test_repr(case):
    for record in _records(case):
        assert repr(record) == case[3]


@pytest.mark.parametrize("case", _CASES, ids=_IDS)
def test_equal_only_to_the_same_type_with_equal_fields(case):
    cls, names, values, _ = case
    record, twin = _records(case)
    assert record == twin and not record != twin
    assert record != values
    assert record != SimpleNamespace(**dict(zip(names, values)))
    # Every case's last field differs from (), which each type but
    # ExperimentConfig accepts there, and from its _OTHER_LAST value.
    assert record != cls(*values[:-1], _OTHER_LAST.get(cls, ()))


@pytest.mark.parametrize(
    "first, second",
    [
        (ClarificationMap, ReductionTrace),
        (ScaleFamily, ConflictGraph),
        (ContranominalScale, InfluenceReport),
        (ScaleCount, CubicSet),
        (FormalConcept, Implication),
        (ConceptSet, InfluenceReport),
        (AttributeInfluence, RepetitionRecord),
    ],
    ids=lambda cls: cls.__name__,
)
def test_records_of_other_types_with_equal_fields_differ(first, second):
    values = next(case[2] for case in _CASES if case[0] is first)
    a, b = first(*values), second(*values)
    assert a != b and b != a
    assert not a == b and not b == a


@pytest.mark.parametrize("case", _CASES, ids=_IDS)
def test_hash_is_the_hash_of_the_field_tuple(case):
    cls, _, values, _ = case
    record = cls(*values)
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(record) == hash(values)
        assert hash(record) == hash(cls(*values))


@pytest.mark.parametrize("case", _CASES, ids=_IDS)
def test_pickle_and_copy_round_trips(case):
    cls, names, values, _ = case
    record = cls(*values)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in protocols]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for other in copies:
        assert type(other) is cls
        assert other == record
        assert repr(other) == repr(record)
    deep = copies[-1]
    for name in names:
        value = getattr(record, name)
        if isinstance(value, (dict, FormalContext)):
            assert getattr(deep, name) is not value


@pytest.mark.parametrize("case", _CASES, ids=_IDS)
def test_fields_cannot_be_assigned_or_deleted(case):
    cls, names, values, _ = case
    record = cls(*values)
    for name in (*names, "no_such_field"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize(
    "objects, attributes, message",
    [
        ((1, 0), (0,), "object indices must be sorted and duplicate-free"),
        ((0, 0), (0,), "object indices must be sorted and duplicate-free"),
        ((-1, 0), (0,), "object index out of range"),
        ((0, 2), (0,), "object index out of range"),
        ((0,), (1, 0), "attribute indices must be sorted and duplicate-free"),
        ((0,), (1, 1), "attribute indices must be sorted and duplicate-free"),
        ((0,), (-1,), "attribute index out of range"),
        ((0,), (2,), "attribute index out of range"),
        ((1, 1), (5,), "object indices must be sorted and duplicate-free"),
    ],
)
def test_subcontext_selection_rejects_bad_indices(objects, attributes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SubcontextSelection(_CTX, objects, attributes)
    with pytest.raises(ValueError, match=f"^{message}$"):
        SubcontextSelection(parent=_CTX, object_indices=objects, attribute_indices=attributes)


def test_subcontext_selection_accepts_empty_indices():
    sel = SubcontextSelection(_CTX, (), ())
    assert (sel.object_indices, sel.attribute_indices) == ((), ())


@pytest.mark.parametrize(
    "premise, conclusion",
    [((3, 0, 3), [2, 1, 1]), ([0, 3], (2, 1)), ({3, 0}, iter((1, 2)))],
)
def test_implication_stores_sorted_duplicate_free_tuples(premise, conclusion):
    imp = Implication(premise, conclusion)
    assert (imp.premise, imp.conclusion) == ((0, 3), (1, 2))
    assert imp == Implication(premise=(0, 3), conclusion=(1, 2))
    assert (imp.premise_mask, imp.conclusion_mask) == (0b1001, 0b110)


def test_formal_concept_masks():
    concept = FormalConcept((0, 2), (1,))
    assert (concept.extent_mask, concept.intent_mask) == (0b101, 0b10)


def test_concept_set_stores_concepts_deduplicated_and_sorted_by_intent():
    low, high = FormalConcept((0, 1), ()), FormalConcept((1,), (1,))
    concepts = ConceptSet([high, low, high])
    assert concepts.concepts == (low, high)
    assert concepts == ConceptSet(concepts=iter((low, high)))
    assert (len(concepts), list(concepts), concepts.top()) == (2, [low, high], low)
    with pytest.raises(ValueError, match="^concepts must have pairwise distinct extents$"):
        ConceptSet([low, FormalConcept((0, 1), (1,))])


def test_concept_set_refuses_two_concepts_with_one_intent():
    with pytest.raises(ValueError, match="^concepts must have pairwise distinct intents$"):
        ConceptSet([FormalConcept((0,), (1,)), FormalConcept((1,), (1,))])
    # Extents are checked first.
    with pytest.raises(ValueError, match="^concepts must have pairwise distinct extents$"):
        ConceptSet([FormalConcept((0,), (1,)), FormalConcept((0,), (2,)), FormalConcept((1,), (1,))])


def test_implication_base_stores_its_implications_as_a_tuple():
    imps = [Implication((0,), (1,)), Implication((1,), (2,))]
    base = ImplicationBase(iter(imps), 4)
    assert base.implications == tuple(imps)
    assert (len(base), list(base), base.concepts) == (2, imps, 4)


def test_class_keywords_give_the_trailing_fields_defaults():
    class Config(_Record, rounds=1, label="x"):
        __slots__ = ("seed", "rounds", "label")

    assert Config(3) == Config(3, 1, "x") == Config(seed=3, label="x")
    assert Config(3, label="y", rounds=2) == Config(3, 2, "y")
    with pytest.raises(TypeError):
        Config()
    assert ExperimentConfig.__init__.__defaults__ == (0.5, 1000, 0.5, "adjusted")
    assert ExperimentConfig(1) == ExperimentConfig(1, 0.5, 1000, 0.5, "adjusted")
    slots = {"__slots__": ("seed", "rounds", "label")}
    for defaults in (
        {"seed": 0},
        {"rounds": 1},
        {"seed": 0, "label": "x"},
        {"label": "x", "nothing": 0},
        {"a": 0, "seed": 0, "rounds": 1, "label": "x"},
    ):
        with pytest.raises(TypeError, match="^Bad defaults must name its trailing fields$"):
            type("Bad", (_Record,), slots, **defaults)
