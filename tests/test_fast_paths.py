"""The fast line loops and the descriptor writer agree with their references.

``parse_visdrone_file`` and ``parse_box_rows`` read each line on a fast path
and call the row checker only for a line that fails it; sending every line
through the checker is the reference. Their inputs are the fixture files under
``test_hostile_input``'s hostile tokens and edits, plus a few tokens of the
comma-separated source format. ``dataset.yaml`` is written without PyYAML for
plain words; ``yaml.safe_dump`` is the reference for every descriptor.
"""

import yaml
from hypothesis import example, given, settings, strategies as st

from helpers import fixtures_root
from test_hostile_input import TOKENS, mutate
from vrueval.annotations import (
    ClassMap,
    _box_row,
    _visdrone_row,
    parse_box_rows,
    parse_visdrone_file,
)
from vrueval.dataset import _descriptor_yaml
from vrueval.errors import ParseError
from vrueval.geometry import ImageDims

FIXTURES = fixtures_root()
SOURCES = sorted(FIXTURES.glob("visdrone_mini/annotations/*.txt"))
BOX_FILES = sorted(FIXTURES.glob("micro/labels/val/*")) + sorted(
    FIXTURES.glob("micro/detections/*")
)
EDITS = ["field", "insert", "duplicate", "delete", "bom"]
# the source format's separators and the values that its checks turn on
SOURCE_TOKENS = TOKENS + [",", " ", "\t", "0", "-5", "12", "\n"]
CLASS_MAPS = [
    ClassMap.visdrone_default(),
    ClassMap(mapping={1: 0, 7: 1}, names=("pedestrian", "tricycle"), drop=frozenset({2})),
]
DIMS = ImageDims(800, 500)
PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def outcome(parse) -> str:
    """The rows ``parse()`` returns, or the text of the ParseError it raises."""
    try:
        return repr(parse())  # repr tells -0.0 from 0.0
    except ParseError as exc:
        return f"ParseError: {exc}"


def checked_visdrone(text, class_map, path):
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            row = _visdrone_row(line, class_map.targets, path, lineno)
            if row is not None:
                rows.append(row)
    return rows


def checked_boxes(text, lead, num_classes, path):
    return [
        _box_row(line, lead, DIMS, num_classes, path, lineno)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line and not line.isspace()
    ]


@PROPERTY
@given(
    source=st.sampled_from(SOURCES),
    edits=st.lists(
        st.tuples(
            st.sampled_from(EDITS), st.integers(0, 40), st.integers(0, 200),
            st.sampled_from(SOURCE_TOKENS),
        ),
        min_size=1, max_size=3,
    ),
    class_map=st.sampled_from(CLASS_MAPS),
)
def test_source_fast_loop_matches_the_checker(source, edits, class_map):
    text = source.read_text(encoding="utf-8")
    for edit in edits:
        text = mutate(text, *edit)
    path = str(source)
    assert outcome(lambda: parse_visdrone_file(text, class_map, path)) == outcome(
        lambda: checked_visdrone(text, class_map, path)
    )


@PROPERTY
@given(
    box_file=st.sampled_from(BOX_FILES),
    edits=st.lists(
        st.tuples(
            st.sampled_from(EDITS), st.integers(0, 40), st.integers(0, 200),
            st.sampled_from(TOKENS),
        ),
        min_size=1, max_size=3,
    ),
    lead_classes=st.sampled_from([(2, 2), (2, None), (1, 2), (1, None), (0, None)]),
)
@example(  # a negative confidence on the fast loop's own line
    box_file=FIXTURES / "micro/detections/img1.txt", edits=[("field", 0, 1, "-1")],
    lead_classes=(2, 2),
)
def test_box_fast_loop_matches_the_checker(box_file, edits, lead_classes):
    lead, num_classes = lead_classes
    text = box_file.read_text(encoding="utf-8")
    for edit in edits:
        text = mutate(text, *edit)
    path = str(box_file)
    assert outcome(lambda: parse_box_rows(text, lead, DIMS, num_classes, path)) == outcome(
        lambda: checked_boxes(text, lead, num_classes, path)
    )


# scalars that YAML would read as something else, or that need quoting
YAML_TOKENS = [
    "yes", "No", "off", "ON", "null", "Null", "~", "y", "n", "True", "FALSE", "yEs",
    "1", "0x1", "1e3", "1_0", "12:30", ".inf", ".nan", "-x", "-", "a: b", "a:b", "#",
    "a:", "a #b", "a#b", "a,b", "[a]", "<<", "=", "---", "...", "?", "é", "　", "a\nb",
    "", " a", "a ", "a b", "a" * 81, "b" * 127, "c" * 128, "d e" * 40,
]
SCALARS = st.one_of(
    st.sampled_from(YAML_TOKENS),
    st.text(st.sampled_from("aZ09_./- :#'\"é"), max_size=12),
    st.builds(
        str.__add__, st.sampled_from("abXY"), st.text(st.sampled_from("az09_./-"), max_size=140)
    ),
)


def descriptor(names: list[str], split: str) -> dict:
    """The descriptor ``convert_dataset`` builds for ``names`` and ``split``."""
    built = {"names": names}
    for name in ("train", "val", "test"):
        built[name] = f"labels/{split}" if name == split else ""
    if split not in ("train", "val", "test"):
        built[split] = f"labels/{split}"
    return built


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    names=st.lists(SCALARS, max_size=5),
    split=st.one_of(st.sampled_from(["train", "val", "test", "names"]), SCALARS),
)
@example(names=["pedestrian"], split="s" * 127)  # the longest simple key
@example(names=["pedestrian"], split="s" * 128)
@example(names=["a:", "b"], split="val")
def test_descriptor_writer_matches_safe_dump(names, split):
    built = descriptor(names, split)
    assert _descriptor_yaml(built) == yaml.safe_dump(built, sort_keys=False)

