"""Re-runnable mutation check: every listed mutant must make its tests fail.

    python3 tools/mutants.py
    python3 tools/mutants.py --only NAME [NAME ...]

Each row of `MUTANTS` names a file under `src/`, an exact text that occurs
exactly once in it, the text that replaces it, and the pytest node ids that
must fail once it is replaced. A mutant named in `EQUIVALENT` changes no
behaviour, so its tests must pass: it is expected to survive, and it fails
the check if they kill it. For each mutant the script copies `src/`,
`tests/` and `pyproject.toml` into a fresh temporary directory, applies the
replacement there, and runs each named test alone in that copy. The
checkout itself is never written. A mutant whose tests all pass survives.
A row reads `killed` only when every one of its tests fails alone;
otherwise it names the tests that pass alone, so a test that cannot kill
its mutant shows even when another test of the row kills it.

With `--only NAME ...`, only the rows with those names are tried; an
unknown name exits 2. The tests the tried rows name are first run once on
an unmutated copy; if they fail there, no mutant is tried. The exit status
is 0 when every mutant is killed and every equivalent one survives, 1 when
one does otherwise or its text does not occur exactly once, and 2 when the
unmutated tests fail or a mutant names no test. Standard library only; not
part of the Tier-1 suite.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

# (name, file under src/, exact old text, new text, tests expected to fail)
MUTANTS = [
    (
        "work-cap-off-by-one",
        "sdfkit/errors.py",
        "        if self.used > self.cap:",
        "        if self.used >= self.cap:",
        [
            "tests/test_decided_checks.py::TestOrderCore::test_chain_cap_does_not_depend_on_order",
            "tests/test_order_core.py::TestSetPartitions::test_fits_and_work_cap",
            "tests/test_sdf.py::TestVerifySdf::test_3e_work_cap_and_visit_order",
            "tests/test_sigma_info.py::TestEnumerateEis::test_cap",
            "tests/test_action_path.py::TestCheckApc3::test_generator_search_past_its_cap_raises",
            "tests/test_sdf.py::TestIsomorphism::test_search_past_its_cap_raises",
        ],
    ),
    (
        "work-cap-read-at-import",
        "sdfkit/errors.py",
        '    def __init__(self, search: str, unit: str = "work units"):\n'
        "        self.search, self.unit, self.used, self.cap = search, unit, 0, WORK_CAP\n",
        '    def __init__(self, search: str, unit: str = "work units", cap: int = WORK_CAP):\n'
        "        self.search, self.unit, self.used, self.cap = search, unit, 0, cap\n",
        [
            "tests/test_decided_checks.py::TestOrderCore::test_chain_cap_does_not_depend_on_order",
            "tests/test_order_core.py::TestSetPartitions::test_fits_and_work_cap",
            "tests/test_sdf.py::TestVerifySdf::test_3e_work_cap_and_visit_order",
            "tests/test_sigma_info.py::TestEnumerateEis::test_cap",
            "tests/test_action_path.py::TestCheckApc3::test_generator_search_past_its_cap_raises",
            "tests/test_sdf.py::TestIsomorphism::test_search_past_its_cap_raises",
        ],
    ),
    (
        "chain-spend-dropped",
        "sdfkit/order_core.py",
        "        work.spend()\n        below = cover_cache[x]",
        "        below = cover_cache[x]",
        [
            "tests/test_decided_checks.py::TestOrderCore::test_chain_cap_does_not_depend_on_order",
            "tests/test_order_core.py::TestMaximalChains::test_size_cap",
        ],
    ),
    (
        "partition-spend-dropped",
        "sdfkit/order_core.py",
        "        work.spend()\n        if len(at) == len(items):",
        "        if len(at) == len(items):",
        [
            "tests/test_order_core.py::TestSetPartitions::test_fits_and_work_cap",
            "tests/test_sdf.py::TestVerifySdf::test_3e_work_cap_and_visit_order",
            "tests/test_sigma_info.py::TestEnumerateEis::test_candidate_list_cap_names_its_search",
        ],
    ),
    (
        "partition-stack-order-reversed",
        "sdfkit/order_core.py",
        "                blocks[j].pop()",
        "                blocks[j].pop(0)",
        [
            "tests/test_order_core.py::TestSetPartitions::test_matches_recursive_form",
            "tests/test_order_core.py::TestSetPartitions::test_restricted_growth_order",
        ],
    ),
    (
        "eis-spend-dropped",
        "sdfkit/sigma_info.py",
        "    def fits(i, j):\n        work.spend()\n",
        "    def fits(i, j):\n",
        [
            "tests/test_sigma_info.py::TestEnumerateEis::test_cap",
            "tests/test_cli.py::TestRun::test_eis_search_counts_against_the_work_cap",
        ],
    ),
    (
        "eis-lists-counted-after-all-are-built",
        "sdfkit/sigma_info.py",
        "        work.spend(len(candidates[i]))\n",
        "    work.spend(sum(len(candidates[i]) for i in order))\n",
        ["tests/test_sigma_info.py::TestEnumerateEis::test_cap_builds_at_most_one_list_past_it"],
    ),
    (
        "eis-trace-table-keyed-without-domain",
        "sdfkit/sigma_info.py",
        "            key = (dom[o], pos[o], d, j)",
        "            key = (pos[o], j)",
        ["tests/test_sigma_info.py::TestEnumerateEis::test_order_matches_sorting_oracle"],
    ),
    (
        "eis-heap-pops-greatest-rank",
        "sdfkit/sigma_info.py",
        "        i = heapq.heappop(ready)",
        "        i = max(ready)\n        ready.remove(i)",
        [
            "tests/test_sigma_info.py::TestEnumerateEis::test_order_matches_sorting_oracle",
            "tests/test_sigma_info.py::TestEnumerateEis::test_cap_points_match_the_scanning_form",
        ],
    ),
    (
        "x-above-ge-x-filter-skipped",
        "sdfkit/sdf.py",
        "if o is not m and ge_x(o, m)",
        "if o is not m",
        ["tests/test_decided_checks.py::TestSdfChecks::test_x_above_and_ttree_match_the_pairwise_forms"],
    ),
    (
        "generator-spend-dropped",
        "sdfkit/action_path.py",
        "            work.spend()\n            family = frozenset(family)",
        "            family = frozenset(family)",
        [
            "tests/test_action_path.py::TestCheckApc3::test_generator_search_past_its_cap_raises",
            "tests/test_cli.py::TestThm411::test_cap_error_is_reported_not_skipped",
        ],
    ),
    (
        "isomorphism-spend-dropped",
        "sdfkit/sdf.py",
        "            work.spend()\n            out_map = {}",
        "            out_map = {}",
        ["tests/test_sdf.py::TestIsomorphism::test_search_past_its_cap_raises"],
    ),
    (
        "price-key-ambiguity-unchecked",
        "sdfkit/cli.py",
        "type(scen) is str or key not in space.scenarios,",
        "True,",
        ["tests/test_cli.py::TestParse::test_up_and_out_price_key_names_one_scenario"],
    ),
    (
        "piece-c1-dropped",
        "sdfkit/action_path.py",
        "                stuck.append(group)",
        "                pass",
        ["tests/test_decided_checks.py::TestAgentPieces::test_matches_full_window_choices"],
    ),
    (
        "piece-c2-none-or-all-dropped",
        "sdfkit/action_path.py",
        "            bad.append(h)",
        "            pass",
        [
            "tests/test_decided_checks.py::TestAgentPieces::test_matches_full_window_choices",
            "tests/test_decided_checks.py::TestWindowChoice::test_matches_canonical_scans",
        ],
    ),
    (
        "piece-off-domain-scenario-acts",
        "sdfkit/action_path.py",
        "dict.fromkeys(move.domain, g_set)",
        "dict.fromkeys(aps.po.scenarios.scenarios, g_set)",
        ["tests/test_decided_checks.py::TestAgentPieces::test_matches_full_window_choices"],
    ),
    (
        "read-piece-off-domain-scenario-acts",
        "sdfkit/action_path.py",
        "for c in chosen.get(w, ()):",
        "for c in chosen.get(w, parts):",
        ["tests/test_decided_checks.py::TestAgentPieces::test_matches_full_window_choices"],
    ),
    (
        "fmt-frozenset-unsorted",
        "sdfkit/_canon.py",
        '        return "{" + ", ".join(fmt(v) for v in canon_sorted(value)) + "}"',
        '        return "{" + ", ".join(fmt(v) for v in value) + "}"',
        ["tests/test_canon.py::test_fmt_matches_oracle"],
    ),
    (
        "move-text-shared",
        "sdfkit/sdf.py",
        '        return "{" + ", ".join(f"{fmt(w)}↦{fmt(n)}" for w, n in self.graph) + "}"',
        '        RandomMove._text = "{" + ", ".join(f"{fmt(w)}↦{fmt(n)}" for w, n in self.graph) + "}"\n'
        "        return RandomMove._text",
        ["tests/test_canon.py::test_move_and_sigma_texts_match_oracle"],
    ),
    (
        "eis-listing-first-move",
        "sdfkit/cli.py",
        "    listing = [[[sigma.fmt() for _, sigma in e.entries]] for e in structures]",
        "    listing = [[[e.entries[0][1].fmt() for _, sigma in e.entries]] for e in structures]",
        [
            "tests/test_cli.py::TestOncePerRun::test_timing_enumerate_eis_renders_each_sigma_once",
            "tests/test_golden.py::test_report_matches_golden[timing]",
        ],
    ),
    (
        "passed-shared-with-notes",
        "sdfkit/verdict.py",
        "        if notes or partial:",
        "        if partial:",
        [
            "tests/test_golden.py::test_report_matches_golden[explicit-sdf]",
            "tests/test_sdf.py::TestVerifySdf::test_3f_reported_not_skipped",
        ],
    ),
    (
        "sweep-row-text-of-the-first-row",
        "sdfkit/cli.py",
        '                live.append((f"t={t}, {label}, g={fmt(tuple(g.values()))}", case))',
        '                live.append((live[0][0] if live else f"t={t}, {label}, g={fmt(tuple(g.values()))}", case))',
        [
            "tests/test_golden.py::test_report_matches_golden[upandout]",
            "tests/test_golden.py::test_timing_thm4_11_matches_digest",
            "tests/test_cli.py::TestThm411::test_matches_the_oracle_sweep",
        ],
    ),
    (
        "sweep-skips-counted-once",
        "sdfkit/cli.py",
        "                skipped += len(structures)",
        "                skipped += 1",
        [
            "tests/test_cli.py::TestThm411::test_matches_the_oracle_sweep",
            "tests/test_golden.py::test_report_matches_golden[upandout]",
        ],
    ),
    (
        "sweep-row-errors-raised-at-build",
        "sdfkit/cli.py",
        "            else:\n                live.append(",
        "            elif isinstance(case, KernelError):\n                raise case\n"
        "            else:\n                live.append(",
        ["tests/test_cli.py::TestThm411::test_errors_are_raised_in_walk_order[1]"],
    ),
    (
        "builtin-choices-of-simple",
        "sdfkit/cli.py",
        "    choices = examples.all_named_choices(name)",
        '    choices = examples.all_named_choices("simple")',
        [
            "tests/test_cli.py::TestNamedChoices::test_every_name_resolves_to_its_set[variant]",
            "tests/test_golden.py::test_report_matches_golden[variant-adapted]",
        ],
    ),
    (
        "report-code-isinstance",
        "sdfkit/cli.py",
        "                enc(code) if type(code) is str else _emitted(code, _ITEM_KEYS),",
        "                enc(code) if isinstance(code, str) else _emitted(code, _ITEM_KEYS),",
        ["tests/test_cli.py::TestReportWriter::test_matches_payload_writer_on_synthetic_reports"],
    ),
    (
        "passed-template-for-any-ok",
        "sdfkit/cli.py",
        "            if v is passed and type(k) is str:",
        "            if v.ok and type(k) is str:",
        ["tests/test_cli.py::TestReportWriter::test_shared_passed_items_match_payload_writer"],
    ),
    (
        "once-not-keeping",
        "sdfkit/cli.py",
        "        if key not in self._kept:",
        "        if True:",
        ["tests/test_cli.py::TestOncePerRun::test_verify_and_apw_reuse_the_build"],
    ),
    (
        "forest-witness-max",
        "sdfkit/order_core.py",
        "    return min(failing, key=canon_key) if failing else None",
        "    return max(failing, key=canon_key) if failing else None",
        ["tests/test_decided_checks.py::TestOrderCore::test_forest_and_separation_witnesses"],
    ),
    (
        "separation-leaves-dropped",
        "sdfkit/order_core.py",
        "below & leaves",
        "below",
        [
            "tests/test_decided_checks.py::TestOrderCore::test_separation_witness_matches_chain_oracle_on_forests",
            "tests/test_order_core.py::TestIndexAgainstOracles::test_is_tree_and_separation_witness",
        ],
    ),
    (
        "axiom1-singleton-test-inverted",
        "sdfkit/set_forest.py",
        "if frozenset([v]) not in sf.nodes]",
        "if frozenset([v]) in sf.nodes]",
        [
            "tests/test_set_forest.py::TestVerifyOwnRepresentation::test_missing_singleton_under_a_deep_chain",
            "tests/test_decided_checks.py::TestOwnRepresentation::test_matches_canonical_loop",
        ],
    ),
    (
        "ttree-moves-from-minima-off",
        "sdfkit/sdf.py",
        "    tree_moves = tree.poset.elements - tree.poset.minimal_elements()",
        "    tree_moves = tree.poset.elements",
        [
            "tests/test_sdf.py::TestTTree::test_theorem_on_worked_instances",
            "tests/test_decided_checks.py::TestSdfChecks::test_ttree_matches_the_pairwise_form_on_127_moves",
        ],
    ),
    (
        "time-position-table-off-by-one",
        "sdfkit/action_path.py",
        "        return {p: i for i, p in enumerate(self.points)}",
        "        return {p: i + 1 for i, p in enumerate(self.points)}",
        ["tests/test_tables.py::test_time_index_matches_the_scan"],
    ),
    (
        "projection-table-ignores-the-agent",
        "sdfkit/action_path.py",
        "            return self._tables[agent]",
        "            return next(iter(self._tables.values()))",
        ["tests/test_tables.py::test_projection_and_components_match_the_scans"],
    ),
    (
        "eis-map-returns-the-first-entry",
        "sdfkit/sdf.py",
        "            return self._by_move[move]",
        "            return self.entries[0][1]",
        ["tests/test_tables.py::test_eis_for_move_matches_the_scan"],
    ),
    (
        "per-move-miss-text-of-the-base",
        "sdfkit/sdf.py",
        'raise InputError(f"{self._miss} {move.fmt()}", code=self._code)',
        'raise InputError(f"{PerMove._miss} {move.fmt()}", code=self._code)',
        [
            "tests/test_sigma_info.py::TestMisses::"
            "test_observation_family_names_a_move_without_an_observable",
            "tests/test_tables.py::test_eis_for_move_matches_the_scan",
            "tests/test_tables.py::test_rcs_for_move_matches_the_scan",
        ],
    ),
    (
        "kept-move-key-drops-its-tag",
        "sdfkit/sdf.py",
        '        return ("rmove", canon_key(self.graph))',
        "        return canon_key(self.graph)",
        ["tests/test_tables.py::test_kept_move_key_is_the_definition"],
    ),
    (
        "w1-singleton-guard-dropped",
        "sdfkit/action_path.py",
        "            if len(g) < 2:\n                continue\n            w, p = key",
        "            if False:\n                continue\n            w, p = key",
        [
            "tests/test_action_path.py::TestCheckApw::test_decided_matches_enumeration",
            "tests/test_decided_checks.py::TestCheckApw::test_matches_enumeration",
            "tests/test_tables.py::test_path_index_tables_match_the_scans",
        ],
    ),
    (
        "stuck-length-bound-off-by-one",
        "sdfkit/action_path.py",
        "            if k <= n - 2 and",
        "            if k <= n - 1 and",
        ["tests/test_tables.py::test_path_index_tables_match_the_scans"],
    ),
    (
        "component-blocks-from-minimal-elements",
        "sdfkit/order_core.py",
        "    return frozenset(p.down[r] for r in p.maximal_elements())",
        "    return frozenset(p.down[r] for r in p.minimal_elements())",
        [
            "tests/test_order_core.py::TestConnectedComponents::test_partition_and_merge_violation",
            "tests/test_sdf.py::TestFibres::test_simple_instance",
        ],
    ),
    (
        "ev-terminal-table-keyed-by-outcome",
        "sdfkit/sdf.py",
        "                holders.setdefault((w, out), []).append((m, w))",
        "                holders.setdefault(out, []).append((m, w))",
        ["tests/test_decided_checks.py::TestSdfChecks::test_matches_canonical_loops"],
    ),
    (
        "cached-property-does-not-store",
        "sdfkit/_record.py",
        "        value = instance.__dict__[self.name] = self.func(instance)",
        "        value = self.func(instance)",
        [
            "tests/test_record.py::"
            "test_cached_property_computes_once_and_keeps_the_value_on_the_instance",
            "tests/test_record.py::"
            "test_frozen_records_with_every_table_built_keep_their_value_semantics",
        ],
    ),
    (
        "frozen-guard-accepts-assignment",
        "sdfkit/_record.py",
        '            raise FrozenInstanceError(f"cannot assign to field {name!r}")',
        "            return object.__setattr__(self, name, value)",
        [
            "tests/test_record.py::test_assignment_and_deletion[InstanceDoc]",
            "tests/test_record.py::test_plain_passed_verdict_is_one_frozen_value",
        ],
    ),
    (
        "piece-decided-at-the-own-prefix",
        "sdfkit/action_path.py",
        "    split = _agent_split(aps, agent, k, h)",
        "    split = _agent_split(aps, agent, k, _own_prefix(aps.po, move, aps._time_at(move)[0]))",
        [
            "tests/test_decided_checks.py::TestAgentPieces::test_matches_full_window_choices",
            "tests/test_action_path.py::TestAgentRcs::test_matches_brute_force_on_builtins",
        ],
    ),
    (
        "piece-key-drops-the-component-set",
        "sdfkit/action_path.py",
        "    key = (agent, move, g_set, h)",
        "    key = (agent, move, h)",
        [
            "tests/test_decided_checks.py::TestAgentPieces::test_matches_full_window_choices",
            "tests/test_cli.py::TestOncePerRun::test_apc3_decides_only_the_pieces_it_reads",
        ],
    ),
    (
        "apc3-reads-only-the-own-prefix-piece",
        "sdfkit/action_path.py",
        "{h: e for h in histories if",
        "{h: e for h in histories & {own} if",
        [
            "tests/test_cli.py::TestOncePerRun::test_apc3_decides_only_the_pieces_it_reads",
            "tests/test_action_path.py::TestCheckApc3::test_matches_brute_force",
        ],
    ),
    (
        "path-scenario-pair-drops-its-type",
        "sdfkit/cli.py",
        "and {(type(w), w) for w, _ in paths} <= named",
        "and {w for w, _ in paths} <= {w for _, w in named}",
        ["tests/test_cli.py::TestDecidedParse::test_mutated_corpus_matches_the_walk"],
    ),
    (
        "path-decision-unhashable-guard-dropped",
        "sdfkit/cli.py",
        "except (KeyError, TypeError):  # a missing key",
        "except KeyError:  # a missing key",
        ["tests/test_cli.py::TestDecidedParse::test_mutated_corpus_matches_the_walk"],
    ),
    (
        "fraction-digit-path-drops-isascii",
        "sdfkit/cli.py",
        "kind is str and text.isascii() and text.isdigit()",
        "kind is str and text.isdigit()",
        [
            "tests/test_cli.py::TestDecidedParse::test_mutated_corpus_matches_the_walk",
            "tests/test_cli.py::TestDecidedParse::test_time_point_texts_match_fraction",
        ],
    ),
    (
        "time-axis-order-admits-equal-neighbours",
        "sdfkit/action_path.py",
        "all(map(lt, points, points[1:]))",
        "all(map(lambda a, b: a <= b, points, points[1:]))",
        [
            "tests/test_cli.py::TestDecidedParse::test_mutated_corpus_matches_the_walk",
            "tests/test_action_path.py::TestTimeAxis::test_of_matches_a_sorted_set",
        ],
    ),
    (
        "agent-choice-singleton-group-not-stuck",
        "sdfkit/action_path.py",
        "            if n == len(group):",
        "            if n == len(group) > 1:",
        [
            "tests/test_decided_checks.py::TestAgentPieces::test_matches_full_window_choices",
            "tests/test_decided_checks.py::TestWindowChoice::test_matches_canonical_scans",
        ],
    ),
    (
        "agent-choice-c2-weakened",
        "sdfkit/action_path.py",
        "        if 0 < meets < d:",
        "        if meets < d:",
        [
            "tests/test_decided_checks.py::TestWindowChoice::test_matches_canonical_scans",
            "tests/test_golden.py::test_timing_thm4_11_matches_digest",
        ],
    ),
    (
        "agent-choice-c0-empty-check-dropped",
        "sdfkit/action_path.py",
        "if outcomes and not stuck and not bad:",
        "if not stuck and not bad:",
        [
            "tests/test_decided_checks.py::TestAgentChoiceTable::test_matches_the_literal_agent_choice",
            "tests/test_action_path.py::TestMeasurabilitySweep::test_matches_oracle_on_builtins",
        ],
    ),
    (
        "agent-split-ignores-the-projection",
        "sdfkit/action_path.py",
        "_split(aps.po.index.groups_of(h), k, projection)",
        "_split(aps.po.index.groups_of(h), k, {a: a for a in aps.po.space.actions})",
        [
            "tests/test_decided_checks.py::TestAgentPieces::test_matches_full_window_choices",
            "tests/test_decided_checks.py::TestAgentChoiceTable::test_matches_the_literal_agent_choice",
        ],
    ),
    (
        "agent-choice-text-for-the-wrong-g",
        "sdfkit/action_path.py",
        "_C0C2Failures(lambda: agent_choice(po, t, histories, agent, g))",
        "_C0C2Failures(lambda: agent_choice(po, t, histories, agent, dict(zip(g, reversed(g.values())))))",
        [
            "tests/test_decided_checks.py::TestAgentChoiceTable::test_matches_the_literal_agent_choice",
            "tests/test_decided_checks.py::TestAgentChoiceTable::test_a_skipped_row_renders_nothing",
        ],
    ),
    (
        "rational-bound-inclusive",
        "sdfkit/cli.py",
        "    return value if max(abs(value.numerator), value.denominator) < _BOUND else None",
        "    return value if max(abs(value.numerator), value.denominator) <= _BOUND else None",
        ["tests/test_cli.py::TestDecidedParse::test_time_point_texts_match_fraction[1e4300]"],
    ),
    (
        "rational-zero-refused-past-the-exponent-bound",
        "sdfkit/cli.py",
        "        return None if value else value",
        "        return None",
        ["tests/test_cli.py::TestDecidedParse::test_time_point_texts_match_fraction[0e999999999]"],
    ),
    (
        "verify-eis-last-entry-wins",
        "sdfkit/sigma_info.py",
        "    sigmas = {m: e.for_move(m) for m, _ in e.entries}",
        "    sigmas = dict(e.entries)",
        ["tests/test_sigma_info.py::TestVerifyEis::test_a_repeated_move_is_read_by_its_first_entry"],
    ),
    (
        "every-sigma-forward-against-the-event-algebra",
        "sdfkit/action_path.py",
        "    forward = _every_sigma_implies(ambient, levels, events)",
        "    forward = _every_sigma_implies(ambient, events, levels)",
        ["tests/test_action_path.py::TestEverySigma::test_matches_the_candidate_walk"],
    ),
    (
        "every-sigma-trace-atom-escape-dropped",
        "sdfkit/action_path.py",
        "    if not all(map(ambient.contains, given)):\n        return True\n",
        "",
        ["tests/test_action_path.py::TestEverySigma::test_matches_the_candidate_walk"],
    ),
    (
        "every-sigma-backward-ignores-apc3",
        "sdfkit/action_path.py",
        "(not apc3 or _every_sigma_implies(",
        "(_every_sigma_implies(",
        ["tests/test_action_path.py::TestEverySigma::test_matches_the_candidate_walk"],
    ),
    (
        "every-sigma-forced-true",
        "sdfkit/action_path.py",
        "        return all(_every_sigma_passes(self._space, *row) for row in self.moves)",
        "        return True",
        ["tests/test_action_path.py::TestEverySigma::test_matches_the_candidate_walk"],
    ),
    (
        "verdict-first-move-sigma-reused",
        "sdfkit/action_path.py",
        "            sigma = e.for_move(move)",
        "            sigma = e.for_move(self.moves[0][0])",
        [
            "tests/test_action_path.py::TestMeasurabilityCaseTexts::test_forward_is_named_before_backward",
            "tests/test_action_path.py::TestEverySigma::test_verdict_matches_the_per_move_walk",
        ],
    ),
    (
        "verdict-backward-ignores-apc3",
        "sdfkit/action_path.py",
        "            if apc3 and adapted and not measurable and backward is None:",
        "            if adapted and not measurable and backward is None:",
        [
            "tests/test_action_path.py::TestMeasurabilityCaseTexts::test_adapted_with_apc3_but_not_measurable_fails_backward",
            "tests/test_action_path.py::TestEverySigma::test_verdict_matches_the_per_move_walk",
        ],
    ),
    (
        "verdict-last-failure-named",
        "sdfkit/action_path.py",
        "            if measurable and not adapted and forward is None:",
        "            if measurable and not adapted:",
        [
            "tests/test_action_path.py::TestMeasurabilityCaseTexts::test_measurable_but_not_adapted_fails_forward",
            "tests/test_action_path.py::TestEverySigma::test_verdict_matches_the_per_move_walk",
        ],
    ),
    (
        "verdict-backward-joined-first",
        "sdfkit/action_path.py",
        "        failed = [v.describe() for v in (forward, backward) if v is not None]",
        "        failed = [v.describe() for v in (backward, forward) if v is not None]",
        [
            "tests/test_action_path.py::TestMeasurabilityCaseTexts::test_forward_is_named_before_backward",
            "tests/test_action_path.py::TestEverySigma::test_verdict_matches_the_per_move_walk",
        ],
    ),
    (
        "verdict-reads-every-structure",
        "sdfkit/action_path.py",
        "        if self.holds_for_every_sigma:\n            return Verdict.passed()\n",
        "",
        ["tests/test_golden.py::test_thm4_11_reports_no_case_per_structure"],
    ),
]

# Mutant name -> why no input can tell it from the original.
EQUIVALENT = {
    "report-code-isinstance": "a str subclass goes to _emit_json, whose json.dumps "
    "fallback writes the same encoded string as the C encoder",
    "stuck-length-bound-off-by-one": "a group at |p| = |T| - 1 holds outcomes of one "
    "scenario that share the path before the last time; two of them that also share "
    "the last action are one outcome, so such a group of two or more is never stuck",
    "fraction-digit-path-drops-isascii": "str.isdigit also holds for non-ASCII digits; "
    "int() and the Fraction parser read every decimal digit (Unicode Nd) alike and both "
    "reject every other one (superscripts), as a scan of all code points shows",
}


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _tests_pass(copy: Path, tests: list) -> bool | None:
    """True when every test passes in `copy`, False when one fails, None on timeout."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode == 0


def run_mutant(name, path, old, new, tests) -> str:
    with tempfile.TemporaryDirectory(prefix="sdfkit-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        target = copy / "src" / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"text found {text.count(old)} times"
        target.write_text(text.replace(old, new), encoding="utf-8")
        survivors = [t for t in tests if _tests_pass(copy, [t])]
    if len(survivors) == len(tests):
        return "SURVIVED"
    return f"not killed alone by {', '.join(survivors)}" if survivors else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutation check.")
    parser.add_argument(
        "--only", nargs="+", action="extend", metavar="NAME", help="run only these mutants"
    )
    args = parser.parse_args(argv)
    only = args.only
    mutants = MUTANTS
    if only:
        unknown = set(only) - {m[0] for m in MUTANTS}
        if unknown:
            print(f"no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        mutants = [m for m in MUTANTS if m[0] in only]
    if any(not m[4] for m in MUTANTS):
        print("every mutant must name at least one test", file=sys.stderr)
        return 2
    if not EQUIVALENT.keys() <= {m[0] for m in MUTANTS}:
        print("every equivalent mutant must be a row of MUTANTS", file=sys.stderr)
        return 2
    baseline = list(dict.fromkeys(t for m in mutants for t in m[4]))
    with tempfile.TemporaryDirectory(prefix="sdfkit-mutant-") as tmp:
        _copy(Path(tmp))
        if not _tests_pass(Path(tmp), baseline):
            print("the named tests fail without a mutant; nothing tried", file=sys.stderr)
            return 2
    status = 0
    for mutant in mutants:
        equivalent = mutant[0] in EQUIVALENT
        outcome = run_mutant(*mutant) + (" (equivalent)" if equivalent else "")
        print(f"{mutant[0]}: {outcome}", flush=True)
        if not outcome.startswith("SURVIVED" if equivalent else "killed"):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
