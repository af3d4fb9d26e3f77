(** Phase III: two passes of greedy iterative local refinement (Figure 2).

    Pass 1 — eliminate crosstalk violations.  Budgeting used Manhattan
    distances; detours make the realized LSK exceed the budget for a few
    nets.  For the worst-violating net, repeatedly pick the least congested
    region on its route, tighten the net's Kth there (trading one more
    shield's worth of coupling, per Formula (3)'s reading), and re-run
    SINO in that region, until the net meets its noise bound.

    Pass 2 — reduce routing congestion.  In the most congested region,
    grant nets their remaining LSK slack (largest slack first, one net at
    a time) and re-run SINO; accept the new solution only if it uses fewer
    shields and introduces no violation.

    Both passes mutate the {!Phase2} store and the shield counts in the
    usage accounting in place, and both are incremental:

    - {b Noise cache.}  Refinement keeps each net's worst-sink
      [(sink, LSK, noise)] from {!Noise.worst_sink}.  Net [j]'s entry
      reads K_j only in the panels [j] belongs to, so installing a
      re-solved (or reverted) panel invalidates exactly that panel's
      members; a stale entry is re-walked before it is read.  Pass 1's
      worst-violator pick, pass 2's slack and acceptance check and the
      residual count all read the cache.
    - {b Pass-2 worklist.}  Pass 2 keeps the shielded, not-yet-attempted
      panels in one set ordered by (utilization descending, key
      ascending) and pops its minimum each round.  Inside pass 2 only
      the popped panel's shields change, so every other entry's stored
      utilization stays current; an accepted panel that still has
      shields is pushed back under its new utilization.

    Both keep the picks, re-solves and accept/revert decisions of a
    from-scratch rescan each round.  The mutating tighten/relax steps are
    inherently sequential; [?pool] parallelizes only the full cache
    refreshes between them (one slot per net, each a pure function of the
    store), so results are identical for any job count.  Refinement carries no RNG of its own: every
    re-solve goes through {!Phase2.resolve}, whose result is a pure
    function of the re-bounded instance content and the flow seed. *)

type stats = {
  pass1_nets_fixed : int;  (** violating nets repaired *)
  pass1_resolves : int;  (** SINO re-runs in pass 1 *)
  pass2_shields_removed : int;
  pass2_resolves : int;
  residual_violations : int;  (** should be 0 *)
}

(** [deadline] is checked between pass-1 rip-up rounds and pass-2 relax
    rounds (both leave the Phase2 store consistent); expiry stops the
    pass with its work so far and marks a ["refine"] deadline hit. *)
val run :
  grid:Eda_grid.Grid.t ->
  netlist:Eda_netlist.Netlist.t ->
  routes:Eda_grid.Route.t array ->
  phase2:Phase2.t ->
  usage:Eda_grid.Usage.t ->
  lsk_model:Eda_lsk.Lsk.t ->
  bound_v:float ->
  ?deadline:Eda_guard.Deadline.t ->
  ?pool:Eda_exec.t ->
  unit ->
  stats

val pp_stats : Format.formatter -> stats -> unit
