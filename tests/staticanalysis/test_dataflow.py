"""Liveness, reaching definitions and def-use chains — predication-aware."""

from repro.isa import assemble
from repro.staticanalysis import (
    ENTRY_DEF,
    def_use_chains,
    instr_defs,
    instr_kills,
    instr_uses,
    liveness,
    pred_var,
    reaching_definitions,
    var_name,
)


def test_instr_uses_and_defs():
    prog = assemble(
        """
        IADD R1, R2, R3
        ISETP.LT P0, R1, 0xa
    @P0 MOV R4, 0x1
        EXIT
    """
    )
    assert instr_uses(prog[0]) == (2, 3)
    assert instr_defs(prog[0]) == (1,)
    assert instr_defs(prog[1]) == (pred_var(0),)
    # The guard is a use; a guarded write is a def but not a kill.
    assert pred_var(0) in instr_uses(prog[2])
    assert instr_defs(prog[2]) == (4,)
    assert instr_kills(prog[2]) == ()
    assert instr_kills(prog[0]) == (1,)


def test_var_name_roundtrip():
    assert var_name(5) == "R5"
    assert var_name(pred_var(3)) == "P3"


def test_liveness_straight_line():
    prog = assemble(
        """
        MOV R1, 0x1
        MOV R2, 0x2
        IADD R3, R1, R2
        MOV R4, 0x0
        ST [R4], R3
        EXIT
    """
    )
    live = liveness(prog)
    # R1 is live between its def and its use, then dead.
    assert 1 in live.live_out[0] and 1 in live.live_in[2]
    assert 1 not in live.live_out[2]
    # Nothing is live after the store's reads.
    assert live.live_out[4] == frozenset()
    assert live.live_regs_in(2) == 2
    assert live.live_in_names(2) == ["R1", "R2"]


def test_predicated_write_does_not_kill_liveness():
    prog = assemble(
        """
        MOV R1, 0x1
        ISETP.LT P0, R0, 0x10
    @P0 MOV R1, 0x5
        MOV R2, 0x0
        ST [R2], R1
        EXIT
    """
    )
    live = liveness(prog)
    # The @P0 write may not happen, so the first MOV's value may survive:
    # R1 stays live across the guarded redefinition.
    assert 1 in live.live_in[2]
    assert 1 in live.live_out[0]


def test_unguarded_write_kills_liveness():
    prog = assemble(
        """
        MOV R1, 0x1
        MOV R1, 0x5
        MOV R2, 0x0
        ST [R2], R1
        EXIT
    """
    )
    live = liveness(prog)
    assert 1 not in live.live_in[1]  # first value surely overwritten


def test_liveness_around_loop():
    prog = assemble(
        """
        MOV R1, 0x0
        MOV R2, 0x0
    top:
        IADD R1, R1, R2
        IADD R2, R2, 0x1
        ISETP.LT P0, R2, 0xa
    @P0 BRA top
        MOV R3, 0x0
        ST [R3], R1
        EXIT
    """
    )
    live = liveness(prog)
    # The accumulator and counter are live around the back edge.
    assert 1 in live.live_in[2] and 2 in live.live_in[2]
    assert 1 in live.live_out[5] and 2 in live.live_out[5]


def test_reaching_defs_entry_pseudo_def():
    prog = assemble("IADD R1, R2, 0x1\nEXIT")
    rd = reaching_definitions(prog)
    assert rd.defs_of(0, 2) == {ENTRY_DEF}


def test_reaching_defs_kill_and_merge():
    prog = assemble(
        """
        MOV R1, 0x1
        ISETP.LT P0, R0, 0x10
    @P0 BRA skip
        MOV R1, 0x2
    skip:
        IADD R2, R1, 0x1
        EXIT
    """
    )
    rd = reaching_definitions(prog)
    # At the join, both writes of R1 may reach — but not the entry value:
    # instruction 0 dominates and kills it.
    assert rd.defs_of(4, 1) == {0, 3}


def test_reaching_defs_guarded_write_accumulates():
    prog = assemble(
        """
        MOV R1, 0x1
        ISETP.LT P0, R0, 0x10
    @P0 MOV R1, 0x2
        IADD R2, R1, 0x1
        EXIT
    """
    )
    rd = reaching_definitions(prog)
    # The guarded write adds a definition without killing the unguarded one.
    assert rd.defs_of(3, 1) == {0, 2}


def test_def_use_chains_and_dead_defs():
    prog = assemble(
        """
        MOV R1, 0x1
        MOV R1, 0x2
        MOV R2, 0x0
        ST [R2], R1
        EXIT
    """
    )
    chains = def_use_chains(prog)
    assert chains.uses_of[(1, 1)] == (3,)
    assert chains.reads_per_def((1, 1)) == 1
    # The first write is overwritten unread.
    assert (0, 1) in chains.dead_defs()
    assert chains.defs_of[(3, 1)] == {1}


def test_def_use_ignores_unreachable_blocks():
    prog = assemble(
        """
        BRA end
        MOV R9, 0x1
    end:
        EXIT
    """
    )
    chains = def_use_chains(prog)
    assert (1, 9) not in chains.uses_of


def test_liveness_reports_reachability():
    """Unreachable instructions are never analysed: their empty live set
    means "unknown", which ``reachable`` tells apart from "nothing live"."""
    prog = assemble(
        """
        MOV R1, 0x0
        BRA end
        ST [R1], R2
    end:
        MOV R3, 0x0
        ST [R3], R1
        EXIT
    """
    )
    live = liveness(prog)
    assert live.reachable == [True, True, False, True, True, True]
    assert live.live_in[2] == frozenset()
    assert live.live_in[5] == frozenset()


def test_checkpoint_live_table_treats_unreachable_pcs_as_all_live():
    from repro.sim.replay import _live_table

    prog = assemble(
        """
        MOV R1, 0x0
        BRA end
        ST [R1], R2
    end:
        MOV R3, 0x0
        ST [R3], R1
        EXIT
    """
    )
    table = _live_table(prog)
    assert table.shape == (len(prog) + 1, prog.num_regs)
    # Reachable rows hold live_in's GPRs: nothing at entry or at EXIT.
    assert not table[0].any() and not table[5].any()
    assert table[3].tolist() == [False, True, False, False]
    assert table[4].tolist() == [False, True, False, True]
    # The unreachable ST and the off-program row compare every register.
    assert table[2].all() and table[len(prog)].all()
    assert _live_table(prog) is table  # memoised per program
