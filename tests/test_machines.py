"""Counter machines, pairing, and the witness-race sets."""

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from theorybench.machines import (DIVERGER, MEMO_CAP, DecJz, Halt, Inc,
                                  MachineError, MachineProgram, No,
                                  OracleContractError, PaddedTable, Unknown,
                                  Yes, halting_step, load_program, load_table,
                                  member_B, member_Bbot, member_C, member_Z,
                                  pair, parse_program, proj0, proj1, run, t1,
                                  turing_reduce, unpair)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def even_machine():
    return load_program(FIXTURES / "even.cm")


@pytest.fixture(scope="module")
def table():
    return load_table(FIXTURES / "table_full")


@pytest.fixture(scope="module")
def padded(table):
    return PaddedTable(table)


@pytest.fixture(scope="module")
def b_oracle(even_machine, padded):
    def oracle(x):
        return isinstance(member_B(even_machine, x, padded, 10_000), Yes)

    return oracle


class TestParsing:
    def test_parse_and_print_roundtrip(self):
        text = "INC r1\nDECJZ r0 2\nHALT"
        prog = parse_program(text)
        assert str(prog) == text

    def test_comments_and_blanks_ignored(self):
        prog = parse_program("# setup\n\nINC r0  # bump\nHALT\n")
        assert prog.instructions == (Inc(0), Halt())

    def test_jump_target_validated(self):
        with pytest.raises(MachineError):
            parse_program("DECJZ r0 5\nHALT")

    def test_bad_register(self):
        with pytest.raises(MachineError):
            parse_program("INC x1")

    def test_empty_program_rejected(self):
        with pytest.raises(MachineError):
            MachineProgram(())

    def test_load_table_sorted(self):
        table = load_table(FIXTURES / "table_full")
        assert len(table) == 4
        assert table[0] == DIVERGER
        assert table[1].instructions == (Halt(),)


class TestRun:
    def test_halt_immediately(self):
        assert run(parse_program("HALT"), 99, 10) == Yes(1)

    def test_diverger_unknown(self):
        assert run(DIVERGER, 0, 50) == Unknown(50)

    def test_even_machine_step_count(self, even_machine):
        for w in range(0, 30, 2):
            assert run(even_machine, w, 1000) == Yes(3 * w // 2 + 2)

    def test_even_machine_diverges_on_odd(self, even_machine):
        for w in range(1, 30, 2):
            assert isinstance(run(even_machine, w, 1000), Unknown)

    def test_t1_unique_witness(self, even_machine):
        assert t1(even_machine, 4, 8)
        assert not t1(even_machine, 4, 7)
        assert not t1(even_machine, 4, 9)

    def test_halting_step(self, even_machine):
        assert halting_step(even_machine, 0, 100) == 2
        assert halting_step(even_machine, 1, 100) is None

    @pytest.mark.parametrize("bounds", [(1, 2, 5), (5, 2, 1)])
    def test_running_off_the_last_line_halts(self, bounds):
        # the halt at step k is seen at every bound >= k, whatever came first
        prog = parse_program("INC r1\nINC r1")
        assert [run(prog, 0, b) for b in (1, *bounds)] == \
            [Unknown(1)] + [Yes(2) if b >= 2 else Unknown(1) for b in bounds]
        assert run(parse_program("INC r1"), 0, 1) == Yes(1)


def reference_run(program: MachineProgram, value: int, bound: int) -> int | None:
    """Plain interpreter from step 0: the halting step if it is <= bound."""
    regs = {0: value}
    pc = 0
    code = program.instructions
    for step in range(bound):
        if pc == len(code):
            return step
        match code[pc]:
            case Halt():
                return step + 1
            case Inc(r):
                regs[r] = regs.get(r, 0) + 1
                pc += 1
            case DecJz(r, target):
                if regs.get(r, 0):
                    regs[r] -= 1
                    pc += 1
                else:
                    pc = target
    return bound if pc == len(code) else None


@st.composite
def programs(draw):
    """Small programs over r0..r2: some halt, some fall off the end, some
    jump to themselves on a zero register, some loop without a halt."""
    size = draw(st.integers(1, 6))
    instructions = draw(st.lists(st.one_of(
        st.just(Halt()),
        st.builds(Inc, st.integers(0, 2)),
        st.builds(DecJz, st.integers(0, 2), st.integers(0, size - 1))),
        min_size=size, max_size=size))
    return MachineProgram(tuple(instructions))


class TestMemo:
    @given(programs(), st.lists(st.tuples(st.integers(0, 6), st.integers(1, 60)),
                                min_size=1, max_size=12))
    def test_memo_agrees_with_a_fresh_run(self, prog, queries):
        # inputs and bounds interleave; bounds rise, fall and repeat per input
        for value, bound in queries:
            expected = reference_run(prog, value, bound)
            answer = run(prog, value, bound)
            assert answer == (Unknown(bound) if expected is None else Yes(expected))

    def test_memo_stays_within_its_cap(self):
        prog = parse_program("DECJZ r0 2\nDECJZ r1 0\nHALT")  # halts at 2v + 2
        for value in range(MEMO_CAP + 50):
            run(prog, value, 3)  # open states for every value > 0
        assert len(prog.memo) == MEMO_CAP
        assert 0 not in prog.memo  # the oldest input went first
        assert run(prog, 0, 10) == Yes(2)
        last = MEMO_CAP + 49
        assert run(prog, last, 2 * last + 2) == Yes(2 * last + 2)
        assert len(prog.memo) == MEMO_CAP


class TestPairing:
    def test_examples(self):
        assert pair(0, 0) == 0
        assert pair(1, 0) == 1
        assert pair(0, 1) == 2

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_unpair_inverts_pair(self, x, y):
        assert unpair(pair(x, y)) == (x, y)

    @given(st.integers(0, 50_000))
    def test_pair_inverts_unpair(self, z):
        x, y = unpair(z)
        assert pair(x, y) == z
        assert proj0(z) == x and proj1(z) == y

    def test_unpair_closed_form(self):
        assert all(unpair(pair(x, y)) == (x, y) for x in range(100) for y in range(100))
        assert unpair(pair(10**12, 7)) == (10**12, 7)

    def test_unpair_rejects_negatives(self):
        with pytest.raises(MachineError):
            unpair(-1)


class TestPaddedTable:
    def test_beyond_end_is_diverger(self):
        table = PaddedTable([parse_program("HALT")])
        assert table[0].instructions == (Halt(),)
        assert table[7] == DIVERGER
        assert len(table) == 1

    def test_raw_list_still_errors(self):
        with pytest.raises(MachineError):
            member_Z(pair(0, 3), [DIVERGER], 10)


class TestRaceSets:
    """The strict race B, its mirror B-perp, and the conjunction C."""

    def test_member_z(self, padded):
        # second projection 1 names the fast halter
        x = pair(5, 1)
        assert member_Z(x, padded, 100) == Yes(1)
        assert isinstance(member_Z(pair(5, 0), padded, 100), Unknown)

    def test_b_wins_against_diverger(self, even_machine, padded):
        x = pair(4, 0)  # z never halts, a halts at step 8
        assert member_B(even_machine, x, padded, 1000) == Yes(8)
        assert member_C(even_machine, x, padded, 1000) == No()

    def test_z_wins_with_fast_halter(self, even_machine, padded):
        x = pair(4, 1)  # z = 1 beats every a-halt
        assert member_B(even_machine, x, padded, 1000) == No()
        assert member_Bbot(even_machine, x, padded, 1000) == Yes(1)
        assert member_C(even_machine, x, padded, 1000) == Yes(8)

    def test_tie_goes_to_bbot(self, even_machine, padded):
        # machine 2 halts at step 5 on everything; a halts on w=2 at step 5
        x = pair(2, 2)
        assert halting_step(even_machine, 2, 100) == 5
        assert member_B(even_machine, x, padded, 1000) == No()
        assert member_Bbot(even_machine, x, padded, 1000) == Yes(5)

    def test_odd_input_with_diverger_stays_unknown(self, even_machine, padded):
        x = pair(3, 0)
        assert isinstance(member_B(even_machine, x, padded, 1000), Unknown)
        assert isinstance(member_C(even_machine, x, padded, 1000), Unknown)

    def test_no_only_when_forced(self, even_machine, padded):
        # z known but a unknown: any a-witness now exceeds z, so B is refuted
        x = pair(3, 1)
        assert member_B(even_machine, x, padded, 1000) == No()

    def test_b_and_c_disjoint(self, even_machine, padded):
        for x in range(500):
            b = member_B(even_machine, x, padded, 2000)
            c = member_C(even_machine, x, padded, 2000)
            assert not (isinstance(b, Yes) and isinstance(c, Yes)), x


class TestTuringReduce:
    def test_empty_oracle_empty_set(self, table):
        verdict = turing_reduce(3, DIVERGER, 0, lambda x: False, table, 100)
        assert verdict == "not_in_A"

    def test_reduces_evenness(self, even_machine, table, b_oracle):
        for w in range(60):
            verdict = turing_reduce(w, even_machine, 3, b_oracle, table, 10_000)
            assert verdict == ("in_A" if w % 2 == 0 else "not_in_A"), w

    def test_lying_oracle_is_contract_violation(self, even_machine, table):
        with pytest.raises(OracleContractError):
            turing_reduce(2, even_machine, 0, lambda x: True, table, 100)

    def test_index_outside_table(self, even_machine, table):
        with pytest.raises(MachineError):
            turing_reduce(2, even_machine, 9, lambda x: True, table, 100)
        with pytest.raises(MachineError):
            turing_reduce(2, even_machine, -1, lambda x: True, table, 100)
