"""Table 3: runtime statistics — state-machine visits and residence times.

For every application's tasks, average number of visits to each state
and average (virtual) time per state.  Paper shapes: every task enters
Init/StartCheck/Complete exactly once; Running/EndCheck/Wait are visited
multiple times by tasks that re-execute (Bellman-Ford's relax chain, the
racing consumers); non-root tasks accumulate long StartCheck residence
(valve waiting).

The table itself is built by :mod:`repro.bench.table3`; tier-1 compares
its rendering with the archived ``results/table3_state_stats.txt``.
"""

from repro.bench import render_table3, table3_rows


def test_table3_state_statistics(report, run_once):
    table = run_once(table3_rows)
    report("table3_state_stats", render_table3(table))

    by_task = {(row[0], row[1]): row for row in table}
    visit_offset = 2

    for row in table:
        init_visits = row[visit_offset + 0]
        start_visits = row[visit_offset + 1]
        complete_visits = row[visit_offset + 5]
        # "Each task accesses the Init, StartCheck and Complete states
        # only once" (averaged over re-used task names).
        assert init_visits == 1.0
        assert start_visits == 1.0
        assert complete_visits == 1.0

    # Bellman-Ford's chained relax tasks re-execute (Running > 1).
    bf_rows = [row for row in table
               if row[0] == "bellman_ford" and row[1].startswith("relax")]
    assert any(row[visit_offset + 2] > 1 for row in bf_rows)

    # Non-root tasks spend time waiting in StartCheck.
    sobel = by_task[("edge_detection", "gradient")]
    time_offset = visit_offset + 6
    assert sobel[time_offset + 1] > 0  # StartCheck residence
