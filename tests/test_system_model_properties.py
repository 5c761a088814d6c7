"""A rollout file read a chunk at a time gives what the whole-text read gives, whatever one edit does to it."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from multinoise import system_model
from multinoise.system_model import InputError, RolloutSet, simulate_rollouts

from conftest import assert_same_rollouts

_JSON_CHARACTERS = '0123456789.-+eE[]{},: "\\xunlNIaf'


@settings(max_examples=300, deadline=None)
@given(
    chunk=st.sampled_from([1, 2, system_model._JSON_CHUNK]),
    at=st.integers(min_value=0),
    edit=st.sampled_from(["insert", "replace", "delete"]),
    char=st.sampled_from(_JSON_CHARACTERS),
)
def test_an_edited_rollout_file_reads_as_it_does_whole(bench_system, bench_schedule, zero_init, chunk, at, edit, char):
    """From a one-character edit, the chunked read gives the whole read's set or its InputError, and nothing else."""
    text = simulate_rollouts(bench_system, bench_schedule, zero_init, 3, seed=5).to_json()
    i = at % len(text)
    text = text[:i] + {"insert": char + text[i], "replace": char, "delete": ""}[edit] + text[i + 1 :]

    def read():
        try:
            return RolloutSet.from_json(text)
        except InputError as exc:
            return exc

    with mock.patch.object(system_model, "_JSON_CHUNK", chunk):
        got = read()
    with mock.patch.object(system_model, "_read_chunked", lambda text: None):
        want = read()
    if isinstance(want, InputError):
        assert isinstance(got, InputError) and str(got) == str(want)
    else:
        assert_same_rollouts(got, want)
