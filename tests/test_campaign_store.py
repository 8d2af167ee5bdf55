"""The content-addressed store: cache keys name the computation.

The contract under test: a trial's key changes iff something that could
change its outcome changes (machine model, boot seed, trial count, test
value, repro version), keys and record lines are byte-identical to the
two-pass reference encoding, the JSONL store survives process
boundaries, and damaged records degrade to a warning plus re-execution
-- never a wrong result.

The property half runs under Hypothesis when it is installed; a
seeded-``random`` fallback exercises the same check when it is not (the
arrangement of ``test_faults_properties.py``).
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro import __version__ as REPRO_VERSION
from repro.campaign import (
    BUILTIN_CAMPAIGNS,
    CampaignSpec,
    ResultStore,
    canonical_json,
    channel_cell,
    kaslr_cell,
    spec_digest,
    trial_key,
)
from repro.campaign.builtin import MATRIX_CPUS
from repro.campaign.store import STORE_FORMAT, _record_sum
from repro.runtime import ChannelTrial, MachineSpec, TrialResult
from repro.runtime.tasks import DetectTrial, KaslrTrial, TrialFailure

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on environment
    HAVE_HYPOTHESIS = False


def make_trial(**overrides) -> ChannelTrial:
    spec_fields = dict(model="i7-7700", seed=9)
    trial_fields = dict(byte=0x41, test=0x41, batches=2, trial_index=3)
    for key, value in overrides.items():
        target = spec_fields if key in spec_fields else trial_fields
        target[key] = value
    return ChannelTrial(spec=MachineSpec(**spec_fields), **trial_fields)


# -- the two-pass reference encoding -------------------------------------------


def canonical_encode(obj):
    """Reduce *obj* to plain JSON values (the reference encoder).

    Dataclasses carry their type name, bytes become hex, tuples become
    lists.  ``json.dumps(sort_keys=True, separators=(",", ":"))`` of the
    result is the text :func:`canonical_json` must write directly.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            field.name: canonical_encode(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        return {"__type__": type(obj).__name__, **fields}
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": bytes(obj).hex()}
    if isinstance(obj, (tuple, list)):
        return [canonical_encode(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): canonical_encode(value) for key, value in obj.items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonically encode {type(obj).__name__}")


def reference_json(obj) -> str:
    return json.dumps(canonical_encode(obj), sort_keys=True, separators=(",", ":"))


def reference_digest(payload) -> str:
    return hashlib.sha256(reference_json(payload).encode()).hexdigest()


def reference_trial_key(trial, version=REPRO_VERSION) -> str:
    return reference_digest({"format": STORE_FORMAT, "version": version, "trial": trial})


def reference_spec_digest(spec) -> str:
    return reference_digest(
        {"format": STORE_FORMAT, "version": REPRO_VERSION, "spec": spec}
    )


def check_matches_reference(payload):
    assert canonical_json(payload) == reference_json(payload)
    assert trial_key(payload) == reference_trial_key(payload)


@dataclasses.dataclass(frozen=True)
class Oddities:
    """Field names on both sides of ``__type__``: "Upper" < "__type__" <
    "_under" < "lower"."""

    Upper: object = None
    _under: object = None
    lower: object = None


@dataclasses.dataclass
class Mutable:
    value: object = None


# -- keys ----------------------------------------------------------------------


#: Keys the two-pass encoder wrote at version 1.0.0.
PINNED_KEYS = [
    (
        ChannelTrial(
            spec=MachineSpec(model="i7-7700", seed=9), byte=0x41, test=0x41,
            batches=2, trial_index=3, suppression="tsx",
        ),
        "a3db1bcf0693f7a31cadfe6d8b59b9c046da479acc4a470158e2d1adc7f51488",
    ),
    (
        KaslrTrial(
            spec=MachineSpec(secret=b"\x00\xff", kpti=True),
            va=0xFFFFFFFF81000000, cr3_switch=True, trial_index=7,
        ),
        "bdbdbe51101a719b5c2910660b7e70086757ecc5f16d9693f89a35349780f2db",
    ),
    (
        DetectTrial(spec=MachineSpec(seed=None), scenario="tet-cc", trial_index=5),
        "b4a31b45efd880f1c4872dd845276cc0a42cb9af8a83ab2615dcef057eef8f89",
    ),
]


class TestTrialKey:
    def test_identical_payload_identical_key(self):
        assert trial_key(make_trial()) == trial_key(make_trial())

    @pytest.mark.parametrize(
        "change",
        [
            {"model": "i9-13900K"},  # CPU model
            {"seed": 10},            # boot seed
            {"batches": 3},          # trial count
            {"test": 0x42},          # probed value
            {"trial_index": 4},      # noise-stream index
        ],
    )
    def test_any_field_change_misses(self, change):
        assert trial_key(make_trial(**change)) != trial_key(make_trial())

    def test_version_change_misses(self):
        trial = make_trial()
        assert trial_key(trial, version="1.0.0") != trial_key(trial, version="9.9.9")

    def test_key_is_hex_sha256(self):
        key = trial_key(make_trial())
        assert len(key) == 64
        int(key, 16)

    @pytest.mark.parametrize(
        "trial, key", PINNED_KEYS, ids=["channel-tsx", "kaslr-secret-kpti", "detect-unseeded"]
    )
    def test_pinned_keys(self, trial, key):
        assert trial_key(trial, version="1.0.0") == key


class TestCanonicalEncoding:
    def test_bytes_become_hex(self):
        assert canonical_json(b"\x01\xff") == '{"__bytes__":"01ff"}'

    def test_tuples_and_lists_agree(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2]) == "[1,2]"

    def test_dataclasses_carry_their_type(self):
        encoded = json.loads(canonical_json(MachineSpec(seed=4)))
        assert encoded["__type__"] == "MachineSpec"
        assert encoded["seed"] == 4

    def test_unencodable_raises(self):
        with pytest.raises(TypeError):
            canonical_json(object())


class TestReferenceIdentity:
    @pytest.mark.parametrize("name", sorted(BUILTIN_CAMPAIGNS))
    def test_builtin_campaigns(self, name):
        spec = BUILTIN_CAMPAIGNS[name]()
        assert canonical_json(spec) == reference_json(spec)
        assert spec_digest(spec) == reference_spec_digest(spec)
        for ref in spec.expand():
            assert trial_key(ref.trial) == reference_trial_key(ref.trial)

    def test_equal_specs_keep_their_own_text(self):
        """``seed=1`` and ``seed=True`` compare and hash equal but encode
        as ``1`` and ``true``, whichever of the two is keyed first."""
        for seeds in ((1, True), (True, 1)):
            specs = [MachineSpec(seed=seed) for seed in seeds]
            assert specs[0] == specs[1] and hash(specs[0]) == hash(specs[1])
            for spec in specs:
                check_matches_reference(
                    DetectTrial(spec=spec, scenario="tet-cc", trial_index=0)
                )
                check_matches_reference(spec)
        assert canonical_json(MachineSpec(seed=1)) != canonical_json(
            MachineSpec(seed=True)
        )

    def test_mutable_values_are_re_encoded(self):
        box = Mutable(value=1)
        first = canonical_json(box)
        box.value = True
        assert canonical_json(box) == reference_json(box) != first
        holder = Oddities(lower=[1])
        first = canonical_json(holder)
        holder.lower.append(2)
        assert canonical_json(holder) == reference_json(holder) != first


class TestKeyPerCell:
    """``trial_key`` spells a cell's shared fields once and reuses the
    text while the shared values are the same objects at the same
    version.  Every key must still equal the reference encoder's."""

    def channel_cell(self, spec, byte=0x41):
        return [
            ChannelTrial(spec=spec, byte=byte, test=test, batches=2, trial_index=test)
            for test in range(4)
        ]

    def check(self, trials):
        for trial in trials:
            assert trial_key(trial) == reference_trial_key(trial)

    def test_two_cells_of_one_kind_interleaved(self):
        first = self.channel_cell(MachineSpec(seed=3))
        second = self.channel_cell(MachineSpec(seed=4), byte=0x42)
        self.check([trial for pair in zip(first, second) for trial in pair])
        assert trial_key(first[0]) != trial_key(second[0])

    def test_two_kinds_interleaved(self):
        spec = MachineSpec(seed=3)
        channel = self.channel_cell(spec)
        kaslr = [
            KaslrTrial(spec=spec, va=0xFFFFFFFF80000000 + slot * 0x200000,
                       cr3_switch=False, trial_index=slot)
            for slot in range(4)
        ]
        detect = [
            DetectTrial(spec=spec, scenario="tet-cc", trial_index=index)
            for index in range(4)
        ]
        self.check([trial for row in zip(channel, kaslr, detect) for trial in row])

    @pytest.mark.parametrize(
        "seeds", [(1, True), (True, 1)], ids=["1-then-True", "True-then-1"]
    )
    def test_equal_specs_in_adjacent_cells(self, seeds):
        """``seed=1`` and ``seed=True`` compare equal but encode as ``1``
        and ``true``: the second cell must not reuse the first's text."""
        cells = [self.channel_cell(MachineSpec(seed=seed)) for seed in seeds]
        assert cells[0][0] == cells[1][0]
        for cell in cells:
            self.check(cell)
            self.check([
                DetectTrial(spec=cell[0].spec, scenario="tet-cc", trial_index=index)
                for index in range(3)
            ])
        assert trial_key(cells[0][0]) != trial_key(cells[1][0])

    def test_mutated_shared_list_is_re_encoded(self):
        suppression = ["tsx"]
        trial = dataclasses.replace(
            self.channel_cell(MachineSpec())[0], suppression=suppression
        )
        first = trial_key(trial)
        assert first == reference_trial_key(trial)
        suppression.append("signal")
        assert trial_key(trial) == reference_trial_key(trial) != first

    @pytest.mark.parametrize(
        "trial, key", PINNED_KEYS,
        ids=["channel-tsx", "kaslr-secret-kpti", "detect-unseeded"],
    )
    def test_version_argument_after_default_calls(self, trial, key):
        """The text is reused only at the version it was spelled for.
        ``"1.0.0"`` may equal the default, so another version sits
        between the default-version calls and the pinned one."""
        sibling = dataclasses.replace(trial, trial_index=trial.trial_index + 1)
        self.check([trial, sibling, trial])
        for version in ("9.9.9", "1.0.0"):
            assert trial_key(sibling, version=version) == reference_trial_key(
                sibling, version
            )
            assert trial_key(trial, version=version) == reference_trial_key(
                trial, version
            )
        assert trial_key(trial, version="1.0.0") == key
        self.check([sibling, trial])

    def test_detect_cell_varies_only_its_index(self):
        spec = MachineSpec(seed=None)
        cell = [
            DetectTrial(spec=spec, scenario="tet-cc", trial_index=index)
            for index in range(8)
        ]
        self.check(cell)
        assert len({trial_key(trial) for trial in cell}) == len(cell)


def random_machine(rng: random.Random) -> MachineSpec:
    return MachineSpec(
        model=rng.choice(MATRIX_CPUS),
        seed=rng.choice([None, 0, 1, True, False, 2**63, rng.getrandbits(31)]),
        kpti=rng.random() < 0.5,
        secret=rng.choice([None, b"", b"\x00\xff"]),
        noise_amplitude=rng.choice([0, 2]),
    )


def random_payload(rng: random.Random, depth: int = 0):
    kind = rng.randrange(12 if depth < 3 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice([0, -1, 2**64, -(2**70), rng.getrandbits(40)])
    if kind == 3:
        return rng.choice(
            [0.0, -0.0, 1e300, 5e-324, float("nan"), float("inf"),
             float("-inf"), rng.uniform(-1e6, 1e6)]
        )
    if kind == 4:
        alphabet = 'aZ_"\\\n\t\x00\x7fé€\U0001f600 '
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))
    if kind == 5:
        return rng.choice([bytes, bytearray])(rng.getrandbits(8) for _ in range(3))
    children = [random_payload(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 6:
        return tuple(children)
    if kind == 7:
        return children
    if kind == 8:
        keys = ["k", "a", "Z", "_", "3", 3, "__type__"]
        return {rng.choice(keys): child for child in children}
    if kind == 9:
        return random_machine(rng)
    if kind == 10:
        return ChannelTrial(
            spec=random_machine(rng), byte=rng.randrange(256),
            test=rng.randrange(257), batches=rng.randrange(1, 4),
            trial_index=rng.getrandbits(20),
            suppression=rng.choice([None, "tsx", "signal"]),
        )
    return Oddities(*(children + [None] * 3)[:3])


class TestSeededReference:
    def test_random_payloads_match_reference(self):
        rng = random.Random(0xC0DEC)
        for _ in range(500):
            check_matches_reference(random_payload(rng))


if HAVE_HYPOTHESIS:
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(),
        st.text(max_size=8), st.binary(max_size=4),
    )
    machines = st.builds(
        MachineSpec,
        model=st.sampled_from(MATRIX_CPUS),
        seed=st.one_of(st.none(), st.booleans(), st.integers()),
        kpti=st.booleans(),
        secret=st.one_of(st.none(), st.binary(max_size=4)),
        noise_amplitude=st.integers(0, 3),
    )
    payloads = st.recursive(
        st.one_of(leaves, machines),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(
                st.one_of(st.text(max_size=4), st.integers(-3, 3)),
                children, max_size=4,
            ),
            st.builds(Oddities, children, children, children),
            st.builds(
                ChannelTrial, spec=machines, byte=st.integers(0, 255),
                test=st.integers(0, 256), batches=st.integers(1, 3),
                trial_index=st.integers(0, 2**20),
                suppression=st.sampled_from([None, "tsx", "signal"]),
            ),
        ),
        max_leaves=12,
    )

    class TestHypothesisReference:
        @given(payload=payloads)
        @settings(max_examples=300, deadline=None)
        def test_payloads_match_reference(self, payload):
            check_matches_reference(payload)


class TestSpecDigest:
    def spec(self, seed=5, payload=b"\x07"):
        return CampaignSpec(
            name="t",
            cells=(channel_cell(MachineSpec(seed=seed), payload=payload),),
        )

    def test_stable(self):
        assert spec_digest(self.spec()) == spec_digest(self.spec())

    def test_sensitive_to_cells(self):
        assert spec_digest(self.spec(seed=5)) != spec_digest(self.spec(seed=6))
        assert spec_digest(self.spec()) != spec_digest(self.spec(payload=b"\x08"))

    def test_kaslr_cells_digest_too(self):
        spec = CampaignSpec(
            name="k", cells=(kaslr_cell(MachineSpec(seed=5, kpti=True)),)
        )
        assert spec_digest(spec) == spec_digest(spec)


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        result = TrialResult(totes=(10, 20), cycles=300)
        store.put("k1", result)
        assert store.get("k1") == result
        assert "k1" in store
        assert len(store) == 1

    def test_persists_across_instances(self, tmp_path):
        ResultStore(str(tmp_path)).put("k1", TrialResult(totes=(1,), cycles=2))
        reloaded = ResultStore(str(tmp_path))
        assert reloaded.get("k1") == TrialResult(totes=(1,), cycles=2)

    def test_get_many(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put_many(
            [(f"k{i}", TrialResult(totes=(i,), cycles=i)) for i in range(4)]
        )
        found = store.get_many(["k1", "k3", "missing"])
        assert sorted(found) == ["k1", "k3"]

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k", TrialResult(totes=(1,), cycles=1))
        store.put("k", TrialResult(totes=(2,), cycles=2))
        assert ResultStore(str(tmp_path)).get("k").totes == (2,)

    def test_clear(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k", TrialResult(totes=(1,), cycles=1))
        assert store.clear() == 1
        assert len(ResultStore(str(tmp_path))) == 0

    def test_missing_store_is_empty(self, tmp_path):
        assert len(ResultStore(str(tmp_path / "nowhere"))) == 0


# -- records -------------------------------------------------------------------


#: A result and a failure record, byte for byte as the two-pass encoder
#: wrote them.
RESULT = TrialResult(totes=(278, 270, 271), cycles=52611)
RESULT_KEY = PINNED_KEYS[0][1]
RESULT_LINE = (
    '{"key":"a3db1bcf0693f7a31cadfe6d8b59b9c046da479acc4a470158e2d1adc7f51488",'
    '"result":{"cycles":52611,"totes":[278,270,271]},"sum":"af60f39c042510f4"}'
)
FAILURE = TrialFailure(
    attempts=3,
    faults=("raise", "timeout", "worker-lost"),
    error="trial exceeded its 2.0 s deadline",
)
FAILURE_KEY = PINNED_KEYS[2][1]
FAILURE_LINE = (
    '{"failure":{"attempts":3,"error":"trial exceeded its 2.0 s deadline",'
    '"faults":["raise","timeout","worker-lost"]},'
    '"key":"b4a31b45efd880f1c4872dd845276cc0a42cb9af8a83ab2615dcef057eef8f89",'
    '"sum":"b1f991741c6359d0"}'
)
PINNED_RECORDS = [(RESULT_KEY, RESULT, RESULT_LINE), (FAILURE_KEY, FAILURE, FAILURE_LINE)]


class TestRecordCodec:
    @pytest.mark.parametrize("key, outcome, line", PINNED_RECORDS, ids=["result", "failure"])
    def test_pinned_line_round_trips(self, tmp_path, key, outcome, line):
        store = ResultStore(str(tmp_path))
        assert store._encode_record(key, outcome) == line
        store.put(key, outcome)
        with open(store.path) as handle:
            assert handle.read() == line + "\n"
        assert ResultStore(str(tmp_path)).get(key) == outcome

    def test_every_single_character_flip_is_skipped(self, tmp_path):
        """The FaultyStore damage (XOR 0x02) at every position of both
        lines: each one is caught, none replays."""
        flipped = [
            line[:at] + chr(ord(line[at]) ^ 0x02) + line[at + 1 :]
            for _, _, line in PINNED_RECORDS
            for at in range(len(line))
        ]
        assert len(flipped) == 358
        store = ResultStore(str(tmp_path))
        with open(store.path, "w") as handle:
            handle.write("\n".join(flipped) + "\n")
        with pytest.warns(UserWarning, match="corrupt store record") as caught:
            assert len(store) == 0
        skipped = [w for w in caught if "corrupt store record" in str(w.message)]
        assert len(skipped) == len(flipped)

    def test_non_canonical_line_reexecutes(self, tmp_path):
        """A valid record re-spaced by another JSON writer no longer
        carries the bytes its checksum covers: it is skipped, not replayed."""
        store = ResultStore(str(tmp_path))
        with open(store.path, "w") as handle:
            handle.write(json.dumps(json.loads(RESULT_LINE)) + "\n")
        with pytest.warns(UserWarning, match="corrupt store record"):
            assert store.get(RESULT_KEY) is None

    @pytest.mark.parametrize(
        "outcome",
        [
            TrialResult(totes=(278, 270, 270), cycles=4588),
            TrialResult(totes=(), cycles=0),
            TrialResult(totes=(-3, 0, 1 << 70), cycles=(1 << 64) + 5),
            TrialFailure(attempts=3, faults=("raise", "hang", "timeout"), error="boom"),
            TrialFailure(attempts=1, faults=(), error=""),
            TrialFailure(
                attempts=2,
                faults=("worker-lost", "gärbage"),
                error='ValueError: "quoted"\\path\n\ttab \x00 ∂ 🐛',
            ),
        ],
        ids=["result", "empty", "big-ints", "failure", "no-faults", "escaped"],
    )
    def test_spelled_record_equals_sorted_json(self, outcome):
        """The record text is spelled by hand; it must be exactly what
        the sorted compact encoder writes, escapes and non-ASCII included."""
        if isinstance(outcome, TrialFailure):
            body = {
                "failure": {
                    "attempts": outcome.attempts,
                    "faults": list(outcome.faults),
                    "error": outcome.error,
                }
            }
        else:
            body = {"result": {"totes": list(outcome.totes), "cycles": outcome.cycles}}
        text = json.dumps({"key": RESULT_KEY, **body}, sort_keys=True, separators=(",", ":"))
        line = ResultStore()._encode_record(RESULT_KEY, outcome)
        assert line == text[:-1] + ',"sum":"' + _record_sum(text) + '"}'

    def test_checkpoint_lines_match_single_puts(self, tmp_path):
        """A batch written in one call holds the same bytes as the records
        put one at a time."""
        records = [
            (f"k{i}", TrialResult(totes=(i, i + 1), cycles=10 * i)) for i in range(5)
        ] + [("kf", TrialFailure(attempts=2, faults=("raise", "raise"), error="x"))]
        batch, single = ResultStore(str(tmp_path / "a")), ResultStore(str(tmp_path / "b"))
        batch.put_many(records)
        for key, outcome in records:
            single.put(key, outcome)
        with open(batch.path) as one, open(single.path) as other:
            assert one.read() == other.read()
        assert ResultStore(str(tmp_path / "a")).get_many([k for k, _ in records]) == dict(
            records
        )


class TestCorruptRecords:
    def fill(self, tmp_path, count=3) -> ResultStore:
        store = ResultStore(str(tmp_path))
        store.put_many(
            [(f"k{i}", TrialResult(totes=(i,), cycles=i)) for i in range(count)]
        )
        return store

    def test_corrupt_line_skipped_with_warning(self, tmp_path):
        store = self.fill(tmp_path)
        lines = open(store.path).read().splitlines()
        lines[1] = '{"key": "k1", "result": {"totes": [not json'
        open(store.path, "w").write("\n".join(lines) + "\n")
        reloaded = ResultStore(str(tmp_path))
        with pytest.warns(UserWarning, match="corrupt store record"):
            assert len(reloaded) == 2
        assert reloaded.get("k1") is None  # will re-execute
        assert reloaded.get("k0") is not None
        assert reloaded.get("k2") is not None

    def test_truncated_tail_skipped_with_warning(self, tmp_path):
        store = self.fill(tmp_path)
        text = open(store.path).read()
        open(store.path, "w").write(text[: len(text) - 20])  # tear the tail
        reloaded = ResultStore(str(tmp_path))
        with pytest.warns(UserWarning, match="corrupt store record"):
            assert len(reloaded) == 2

    def test_wrong_shape_skipped_with_warning(self, tmp_path):
        store = self.fill(tmp_path, count=1)
        text = '{"key":"k9","result":{"cycles":1}}'  # checksummed, but no totes
        with open(store.path, "a") as handle:
            handle.write(text[:-1] + ',"sum":"' + _record_sum(text) + '"}\n')
        with pytest.warns(UserWarning, match="corrupt store record"):
            assert ResultStore(str(tmp_path)).get("k9") is None

    @pytest.mark.parametrize(
        "text",
        [
            '{"key":"k9","result":{"cycles":2,"totes":[2]}}{}',
            # The line format closes every text with a brace, so an
            # array record carries one after its bracket.
            '[{"key":"k9","result":{"cycles":2,"totes":[2]}}]}',
        ],
        ids=["data-after-object", "array"],
    )
    def test_decoder_rejects_what_json_loads_rejects(self, tmp_path, text):
        """A checksummed text the decoder does not consume whole is
        skipped, and the last good record under its key still wins."""
        with pytest.raises(ValueError):
            json.loads(text)
        store = self.fill(tmp_path, count=1)
        good = TrialResult(totes=(9,), cycles=9)
        store.put("k9", good)
        with open(store.path, "a") as handle:
            handle.write(text[:-1] + ',"sum":"' + _record_sum(text) + '"}\n')
        with pytest.warns(UserWarning, match="corrupt store record"):
            assert ResultStore(str(tmp_path)).get("k9") == good

    def test_blank_lines_ignored_silently(self, tmp_path):
        store = self.fill(tmp_path, count=1)
        with open(store.path, "a") as handle:
            handle.write("\n\n")
        assert len(ResultStore(str(tmp_path))) == 1
