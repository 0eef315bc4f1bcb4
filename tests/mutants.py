"""A mutation register: small breaks of the package that named tests must catch.

Each entry names a file of ``src/bistellar``, an exact snippet, its
replacement and the tests that must fail once it is made.  For each entry
this script copies the package to a temporary directory, patches the copy
and runs the named tests against it, printing whether the mutant was killed
and the seconds taken, then the seconds of the whole run:

    python3 tests/mutants.py

The tests run with ``PYTHONPATH=<copy>`` and ``-o pythonpath=``: the
``pythonpath = ["src"]`` of ``pyproject.toml`` would otherwise put the
checkout ahead of the copy, and every mutant would survive.  Before the
loop the unmutated copy must pass every named test, with ``import
bistellar`` resolving into the copy.  A snippet found more or less than
once makes its entry stale.  The script exits 1 on a stale entry, a failing
unmutated copy or a mutant that survives (a finding: keep its entry).
pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bistellar"

# (name, file, snippet, replacement, tests that must fail)
MUTANTS = [
    ("_flip rechecks only faces whose count is now need", "moves.py",
     "if was or len(containing) == need:",
     "if len(containing) == need:",
     ["tests/test_move_index.py"
      "::test_a_flip_rechecks_every_face_it_changes[tetrahedron]"]),
    ("apply skips the faces waiting on inserted", "moves.py",
     "(*owners.get(key, ()), *owners.get(target, ()))",
     "(*owners.get(key, ()),)",
     ["tests/test_move_index.py::test_blocked_face_is_released_when_its_simplex_goes"]),
    ("apply rechecks removed, which the flip files as it goes", "moves.py",
     "*owners.get(target, ())) if w != key]",
     "*owners.get(target, ()))]",
     ["tests/test_move_index.py"
      "::test_a_flip_derives_no_link_of_a_face_it_creates_or_destroys[tetrahedron]"]),
    ("_flip files an entering face as its own link", "moves.py",
     "faces[~p] if need > 1 else ()",
     "faces[p] if need > 1 else ()",
     ["tests/test_move_index.py::test_plain_walks_keep_index_exact[triangle]"]),
    ("_flip_plan never lists inserted as it enters", "moves.py",
     "k == n - 1 or k == len(at)",
     "k == n - 1",
     ["tests/test_move_index.py::test_plain_walks_keep_index_exact[triangle]"]),
    ("_flip_plan leaves removed listed as it goes", "moves.py",
     "k == n - 1 or k == n - len(at)",
     "k == n - 1",
     ["tests/test_move_index.py::test_plain_walks_keep_index_exact[triangle]"]),
    ("the first listing keeps face order, unsorted", "moves.py",
     "self._listing.sort()",
     "pass",
     ["tests/test_move_index.py::test_plain_walks_keep_index_exact[triangle]"]),
    ("facet_delta reads the first move's size, not the one at position", "moves.py",
     "2 * self._listing[position][0]",
     "2 * self._listing[0][0]",
     ["tests/test_move_index.py"
      "::test_a_position_gives_the_facet_delta_of_its_move[4-simplex]"]),
    ("a search builds the move of every try", "reduction.py",
     "delta = index.facet_delta(position)",
     "delta = index[position].facet_delta()",
     ["tests/test_reduction.py"
      "::test_a_search_builds_only_the_moves_it_applies[sd-c3-2-1.9]"]),
    ("_link_simplex leaves a ridge's apexes unsorted", "moves.py",
     "return (a, b) if a < b else (b, a)",
     "return (a, b)",
     ["tests/test_move_index.py::test_plain_walks_keep_index_exact[triangle]"]),
    ("find_isomorphism pairs only the first face of each orbit", "complexes.py",
     "zip(left._orbit((u,)), right._orbit((w,)))",
     "zip(left._orbit((u,))[:1], right._orbit((w,))[:1])",
     ["tests/test_complexes.py"
      "::TestIsomorphism::test_z2_pair_with_unlike_involutions_is_not_isomorphic"]),
    ("_transport nudges a tied label by 2", "fan.py",
     "labels[u] += 1",
     "labels[u] += 2",
     ["tests/test_transport.py"
      "::test_relabel_move_rejects_exactly_what_a_flip_rejects[C4-walked]"]),
    ("_transport classifies both halves of the move", "fan.py",
     "gone, added = _replaced(move, False)",
     "gone, added = _replaced(move, True)",
     ["tests/test_locality.py"
      "::test_a_transport_step_does_the_same_work_on_a_larger_complex[facet]"]),
    ("_transport sums the signs of the added facets, not their alternations", "fan.py",
     "d = sum(abs(alternating_sign(f, labels)) for f in added) - before",
     "d = sum(alternating_sign(f, labels) for f in added) - before",
     ["tests/test_transport.py::test_local_step_matches_full_recount"]),
    ("_transport looks for a new edge in dimension 0", "fan.py",
     "if len(inserted) <= 2 < len(removed) + len(inserted):",
     "if len(inserted) <= 2:",
     ["tests/test_transport.py::test_a_move_of_a_0_sphere_relabels_as_it_flips"]),
    ("_transport lets a complementary new edge through", "fan.py",
     "if labels[a] + labels[b] == 0:",
     "if False:",
     ["tests/test_transport.py::test_step_rejects_a_complementary_new_edge"]),
    ("apply never lowers fresh when a vertex goes", "moves.py",
     "self.fresh = min(self.fresh, abs(removed[0]))",
     "pass",
     ["tests/test_move_index.py::test_plain_walks_keep_index_exact[triangle]"]),
    ("_flip_plan names the gone facets by i, not ~i", "moves.py",
     "tuple(~i for i in at if i not in face)",
     "tuple(i for i in at if i not in face)",
     ["tests/test_move_index.py::test_plain_walks_keep_index_exact[triangle]"]),
    ("an uphill try drops the energy multiplier", "reduction.py",
     "-delta * multiplier / temperature)",
     "-delta / temperature)",
     ["tests/test_trajectories.py::test_symmetric_reduction_of_sd_octahedron"]),
    ("_recheck lists a move whose inserted simplex meets its antipode", "moves.py",
     "k not in cofacets and not (z2 and link[0] + link[-1] == 0)))",
     "k not in cofacets))",
     ["tests/test_move_index.py"
      "::test_symmetric_walks_keep_index_exact[square]"]),
    ("_mask_class takes x then -x for a rise in rank", "fan.py",
     "bit >> 1 <= below >> 1",
     "bit >> 1 < below >> 1",
     ["tests/test_fan.py"
      "::test_counts_match_naive_alpha_on_any_labelled_complex"]),
    ("Z2Complex skips its symmetry check", "z2.py",
     "        _checked_symmetric(complex_.facets)\n",
     "        pass\n",
     ["tests/test_z2.py::TestMakeSigned::test_antipodal_pair_in_facet"]),
    ("quotient never finds a vertex adjacent to both ±w", "z2.py",
     "if tuple(sorted((a, -b))) in present:",
     "if False:",
     ["tests/test_z2.py::TestQuotient::test_requires_subdivision"]),
    ("_certify never checks the parity after a flip", "reduction.py",
     "if trace[-1] != parity:",
     "if False:",
     ["tests/test_reduction.py"
      "::TestFanCertificate::test_corrupted_transport_raises[parity]"]),
    ("the chain plan looks faces up unsorted", "complexes.py",
     "at[tuple(sorted(p[:k]))]",
     "at[tuple(p[:k])]",
     ["tests/test_complexes.py::TestFVector::test_sd_of_tetra_boundary"]),
    ("a face and its antipode get the same barycenter id", "complexes.py",
     "(next_id, -next_id)",
     "(next_id, next_id)",
     ["tests/test_z2.py"
      "::TestEquivariantSubdivision::test_four_cycle_to_eight_cycle"]),
    ("alternating_counts gives positive labels the sign bit", "fan.py",
     "1 << (rank[abs(x)] + (x < 0))",
     "1 << (rank[abs(x)] + (x > 0))",
     ["tests/test_fan.py"
      "::test_counts_match_naive_alpha_on_any_labelled_complex"]),
    ("lowest counts no move of the lowest size", "moves.py",
     "(self._listing[0][0] + 1,)",
     "(self._listing[0][0],)",
     ["tests/test_move_index.py::test_plain_walks_keep_index_exact[triangle]"]),
    ("_recheck never takes a face out of the listing", "moves.py",
     "del listing[i]",
     "pass",
     ["tests/test_move_index.py::test_plain_walks_keep_index_exact[triangle]"]),
    ("_link_simplex takes any need apexes for a link simplex", "moves.py",
     "return tuple(sorted(apex)) if len(apex) == need else None",
     "return tuple(sorted(apex))",
     ["tests/test_move_index.py::test_plain_walks_keep_index_exact[disk]"]),
    ("a facet move inserts no fresh vertex", "moves.py",
     "or (self.fresh,))",
     "or ())",
     ["tests/test_move_index.py::test_plain_walks_keep_index_exact[triangle]"]),
    ("a reduction stops one vertex short of its target", "reduction.py",
     "target_vertices = start.dimension + 2 - index.z2",
     "target_vertices = start.dimension + 3 - index.z2",
     ["tests/test_reduction.py::TestPlainReduction::test_identity_on_target"]),
    ("_certify never checks that the trace ends at 1", "reduction.py",
     "if trace[-1] != 1:",
     "if False:",
     ["tests/test_reduction.py::TestFanCertificate::test_corrupted_transport_raises[even]"]),
    ("_load hands a z2 document over as a plain complex", "cli.py",
     "return complex_ if signed is None else signed, labelling",
     "return complex_, labelling",
     ["tests/test_cli.py::TestCommands::test_moves_listing"]),
    ("MoveIndex accepts the (-1)-sphere", "moves.py",
     "if not state.is_pure() or state.dimension < 0:",
     "if not state.is_pure():",
     ["tests/test_public_surface.py::test_the_minus_one_sphere_ends_in_an_error_or_a_count"]),
    ("alternating_counts counts the empty facet", "fan.py",
     "set(map(len, facets)) - {0}",
     "set(map(len, facets))",
     ["tests/test_public_surface.py::test_the_minus_one_sphere_ends_in_an_error_or_a_count"]),
    ("alternating_sign reads the first label of the empty face", "fan.py",
     "key=abs) or [0]",
     "key=abs)",
     ["tests/test_public_surface.py::test_the_minus_one_sphere_ends_in_an_error_or_a_count"]),
    ("alternating_sign gives the empty face the sign -1", "fan.py",
     "else -1 if values[0] else 0",
     "else -1",
     ["tests/test_public_surface.py::test_the_minus_one_sphere_ends_in_an_error_or_a_count"]),
    ("_replaced swaps the gone and added facets", "moves.py",
     "(v in ins, u[:i] + u[i + 1:])",
     "(v not in ins, u[:i] + u[i + 1:])",
     ["tests/test_public_surface.py"
      "::test_move_index_apply_returns_none_and_the_move_names_its_facets"]),
    ("random_fan_labelling counts a vertex among its own neighbours", "generators.py",
     "neighbours[u].add(v)",
     "neighbours[u].update((u, v))",
     ["tests/test_generators.py::TestRandomFanLabelling::test_local_repair_matches_the_rescan"]),
    ("random_fan_labelling leaves the first complementary edge unrepaired", "generators.py",
     "map(label, tails))))]",
     "map(label, tails))))][1:]",
     ["tests/test_generators.py::TestRandomFanLabelling::test_local_repair_matches_the_rescan"]),
    ("a bool seeds the rng", "moves.py",
     "if type(seed) is not int:",
     "if not isinstance(seed, int):",
     ["tests/test_reduction.py::test_bad_seeds_rejected[True]"]),
    ("_flip_plan never lists an entering facet", "moves.py",
     "k == n - 1 or k == len(at)",
     "k == len(at)",
     ["tests/test_move_index.py::test_plain_walks_keep_index_exact[triangle]"]),
    ("_flip_plan leaves a gone facet listed", "moves.py",
     "k == n - 1 or k == n - len(at)",
     "k == n - len(at)",
     ["tests/test_move_index.py::test_plain_walks_keep_index_exact[triangle]"]),
    ("_flip_plan never counts a face that leaves", "moves.py",
     "delta[k - 1] += (not left) - (not joined)",
     "delta[k - 1] += not left",
     ["tests/test_move_index.py::test_plain_walks_keep_index_exact[triangle]"]),
    ("_flip adds the plan's face counts once per half", "moves.py",
     "changed.append(face)\n        self._f[:] = map(add, self._f, delta)",
     "changed.append(face)\n            self._f[:] = map(add, self._f, delta)",
     ["tests/test_move_index.py::test_symmetric_walks_keep_index_exact[square]"]),
    ("a search reads the start's downhill pool at every try", "reduction.py",
     "delta, pool = index.lowest()",
     "delta, pool = MoveIndex(start).lowest()",
     ["tests/test_reduction.py"
      "::test_a_restarting_search_matches_rebuilding_one[sd-simplex4-1-0.05]"]),
    ("random_fan_labelling runs every repair round of a stuck sampling round", "generators.py",
     "                break\n",
     "                pass\n",
     ["tests/test_generators.py::TestRandomFanLabelling"
      "::test_a_stuck_sampling_round_ends_at_once"]),
    ("a lone flip drops the inserted probe", "moves.py",
     "(move.removed, move.inserted)",
     "(move.removed,)",
     ["tests/test_lone_flip.py::test_an_inserted_face_outside_the_star_blocks_the_move"]),
    ("a lone flip drops the antipodal probes", "moves.py",
     "for s in signs]",
     "for s in signs[:1]]",
     ["tests/test_lone_flip.py::test_either_half_of_a_pair_flips_alone"]),
    ("a lone flip skips the whole-complex purity check", "moves.py",
     "(1, -1)[:1 + isinstance(_checked_pure(state), Z2Complex)]",
     "(1, -1)[:1 + isinstance(state, Z2Complex)]",
     ["tests/test_lone_flip.py"
      "::test_an_impure_complex_is_refused_though_the_star_is_pure[plain]"]),
    ("a lone flip indexes every facet", "moves.py",
     "any(map(set(f).issuperset, probes))] or state.facets",
     "True]",
     ["tests/test_locality.py"
      "::test_a_flip_does_the_same_work_on_a_larger_complex[plain-facet]"]),
    ("apply rechecks every face", "moves.py",
     "self._recheck(self._flip(move) + waiting)",
     "self._recheck([*self._flip(move), *waiting, *self._cofacets])",
     ["tests/test_locality.py"
      "::test_a_flip_does_the_same_work_on_a_larger_complex[symmetric-edge]"]),
    ("complex_document copies rows back into lists", "cli.py",
     '"facets": list(complex_.facets)}',
     '"facets": list(map(list, complex_.facets))}',
     ["tests/test_cli.py::test_documents_hold_the_library_rows"]),
    ("_render's fast path takes list rows only", "cli.py",
     "set(map(type, value)) <= {list, tuple}",
     "set(map(type, value)) == {list}",
     ["tests/test_cli.py::test_rows_render_without_a_json_dumps_call_each"]),
    ("tucker_witness takes max", "fan.py",
     "min(edges, default=None)",
     "max(edges, default=None)",
     ["tests/test_fan.py::test_tucker_witness_is_the_first_complementary_edge_violation"]),
    ("find_move indexes only the star", "moves.py",
     "[f for f in _checked_pure(complex_).facets if not near.isdisjoint(f)]",
     "[*map(_checked_pure(complex_).facets.__getitem__, hits)]",
     ["tests/test_moves.py::TestFindMove::test_edge_of_tetra_boundary_blocked"]),
    ("find_move uses the local index's fresh vertex", "moves.py",
     "index.fresh = fresh_vertex(complex_)",
     "pass",
     ["tests/test_moves.py::test_find_move_answers_as_a_whole_index"]),
    ("the repeated-key rule names the last repeat", "cli.py",
     "key = next(k for k, _ in pairs if k in seen or seen.add(k))",
     "key = [k for k, _ in pairs if k in seen or seen.add(k)][-1]",
     ["tests/test_cli.py::TestMalformedInput::test_the_first_repeat_is_named[keys]"]),
    ("relabel_move checks its move by flipping the whole complex", "fan.py",
     "from .moves import _replaced, _star_check",
     "from .moves import _lone_flip as _star_check, _replaced",
     ["tests/test_locality.py"
      "::test_relabel_move_builds_no_complex_beyond_the_star[edge]"]),
    ("relabel_move skips the star check", "fan.py",
     "    _star_check(_checked_kind(z2complex, True), move)\n",
     "    _checked_kind(z2complex, True)\n",
     ["tests/test_transport.py"
      "::test_relabel_move_rejects_exactly_what_a_flip_rejects[C4-walked]"]),
    ("a lone flip keeps the facets it replaces", "moves.py",
     "if f not in gone] + added",
     "] + added",
     ["tests/test_lone_flip.py::test_either_half_of_a_pair_flips_alone"]),
    ("Z2Complex copies what its complex cached", "z2.py",
     "        super().__init__(complex_.facets)\n",
     "        super().__init__(complex_.facets)\n        vars(self).update(vars(complex_))\n",
     ["tests/test_z2.py"
      "::TestMakeSigned::test_what_a_complex_cached_makes_no_difference[octahedron]"]),
]

# Loaded into the unmutated run by ``-p``: records which package the tests imported.
PROBE = """\
from pathlib import Path


def pytest_sessionfinish(session):
    import bistellar
    Path(__file__).with_suffix(".out").write_text(bistellar.__file__)
"""


def run_tests(copy, tests, *options):
    """pytest's exit code for ``tests`` run against the package in ``copy``,
    from the directory above it, so that the examples hypothesis saves from
    a mutant's failures stay out of the checkout."""
    env = {**os.environ, "PYTHONPATH": str(copy)}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "-o", "pythonpath=", *options, *(str(ROOT / test) for test in tests)]
    return subprocess.run(command, cwd=copy.parent, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def fresh_copy(scratch):
    """A clean copy of the package under ``scratch``; returns the directory
    to put on ``PYTHONPATH``."""
    copy = Path(scratch) / "src"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(PACKAGE, copy / "bistellar",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def main():
    begin = perf_counter()
    stale = [name for name, file, snippet, _, _ in MUTANTS
             if (PACKAGE / file).read_text().count(snippet) != 1]
    for name in stale:
        print(f"stale entry (snippet not found exactly once): {name}")
    if stale:
        return 1
    named = sorted({test for *_, tests in MUTANTS for test in tests})
    with tempfile.TemporaryDirectory() as scratch:
        copy = fresh_copy(scratch)
        (copy / "mutant_probe.py").write_text(PROBE)
        if run_tests(copy, named, "-p", "mutant_probe") != 0:
            print("the unmutated copy fails the named tests")
            return 1
        imported = Path((copy / "mutant_probe.out").read_text())
        if copy.resolve() not in imported.resolve().parents:
            print(f"the tests imported {imported}, not the copy in {copy}")
            return 1
        print(f"{'seconds':>7}  result    mutant")
        survived = 0
        for name, file, snippet, replacement, tests in MUTANTS:
            copy = fresh_copy(scratch)
            path = copy / "bistellar" / file
            path.write_text(path.read_text().replace(snippet, replacement))
            start = perf_counter()
            killed = run_tests(copy, tests, "-x") == 1  # 1: tests ran and failed
            survived += not killed
            result = "killed  " if killed else "SURVIVED"
            print(f"{perf_counter() - start:7.1f}  {result}  {name}")
    print(f"{perf_counter() - begin:7.1f}  total")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
