(** Backward reachability with AIG state sets (paper §3).

    Starting from the complement of the invariant, pre-images are iterated
    until either no new states appear (fix-point — the property is proved)
    or the initial states are intersected (a counterexample exists, whose
    trace is rebuilt by functional unrolling). All state sets are AIG
    literals; set operations and termination tests run through the shared
    SAT checker.

    Aborted input quantifications (partial quantification) leave residual
    variables in the state sets; they are renamed to private auxiliary
    variables so they cannot collide with the next frame's inputs, treated
    existentially by every containment test, and retried at later
    iterations. *)

type verdict =
  | Proved (* fix-point without touching the initial states *)
  | Falsified of { depth : int; trace : Trace.t option }
  | Out_of_budget of { reason : string; frames : int }
      (* anytime answer: the iteration limit or a {!Util.Limits} resource
         ([reason] names it) stopped the traversal after completing
         [frames] pre-image frames. Never wrong — a run that cannot
         certify its answer within budget lands here instead. *)

type iteration = {
  index : int; (* 1-based pre-image count *)
  frontier_size : int; (* AND nodes of the new frontier *)
  reached_size : int;
  eliminated_inputs : int;
  kept_inputs : int; (* aborted quantifications this step *)
  naive_size : int; (* sum of naive Shannon sizes, for comparison *)
  seconds : float;
}

type result = {
  verdict : verdict;
  iterations : iteration list;
  total_seconds : float;
  peak_frontier : int;
  sat_queries : int;
  invariant : Aig.lit option;
  (* on [Proved] without partial-quantification residuals: the complement
     of the backward-reached set — an inductive invariant certifying the
     property, checkable independently with {!Certify.check} *)
  aborted_vars : Aig.var list;
  (* the variables partial quantification abandoned across the whole run,
     sorted and deduplicated — who was kept, not just how many. Also
     mirrored into the run report as the [quantify.aborted_vars] meta. *)
}

type config = {
  quant : Quantify.config;
  max_iterations : int;
  sweep_frontier : bool; (* re-run the merge phase on each new frontier *)
  use_reached_dc : bool;
  (* simplify each new frontier using the complement of the reached set
     as a care set: states already known to reach a bad state are don't
     cares. Verdicts and depths stay exact — the frontier is only
     unconstrained inside the reached region, where the onion-ring
     conjunction and the reached-set union absorb any difference, and the
     initial states can never lie there. *)
  make_trace : bool;
  seed : int;
}

val default : config

val pp_verdict : Format.formatter -> verdict -> unit
val pp_result : Format.formatter -> result -> unit

(** [run ?config ?limits m] — verify the model's safety property.

    [limits] is a run-wide resource governor ({!Util.Limits}): the
    traversal polls it at every frame boundary (deadline and AIG node
    ceiling), binds it to the shared SAT checker (conflict pool) and the
    sweeping stack (BDD node pool), and degrades gracefully — frames
    completed before the trip are kept, the SAT-expensive optimizations
    fall back to naive forms, and the verdict becomes {!Out_of_budget}
    naming the tripped resource unless the run already holds a definite
    answer. *)
val run : ?config:config -> ?limits:Util.Limits.t -> Netlist.Model.t -> result

(** {2 The shared frame loop}

    Both traversal directions ({!run} backward, {!Forward.run} forward)
    are one loop over a {!direction}: apply the step to the frontier,
    test the result against the target set, test for a fix-point, then
    stop or continue on the onion ring. The loop owns everything else —
    governor polls, residual-variable renaming, the reached-set
    don't-care, the counterexample-depth scan, certificates and the
    [reach.*] telemetry. *)

(** What a direction is built from: the run's AIG manager, shared SAT
    checker, PRNG and pattern bank, the initial states and the bad states
    (property inputs already quantified). *)
type env = {
  aig : Aig.t;
  checker : Cnf.Checker.t;
  prng : Util.Prng.t;
  bank : Sweep.Pattern_bank.t;
  init : Aig.lit;
  bad : Aig.lit;
}

type direction = {
  start : Aig.lit;  (** first frontier and reached set *)
  target : Aig.lit;  (** a frame intersecting it falsifies the property *)
  step : Aig.lit -> aux:Aig.var list -> Quantify.result;
      (** image or pre-image of a frontier; [aux] are the residual
          variables earlier frames renamed, to be retried *)
  renamed : Aig.var -> bool;
      (** which residual variables of a step would collide with the next
          frame's variables and get renamed to private ones *)
  relabel : Aig.lit -> Aig.lit;
      (** maps a renamed step result onto current-state variables *)
  invariant_of : Aig.lit -> Aig.lit;
      (** the inductive invariant a closed, residual-free reached set
          certifies *)
}

(** [traverse ?config ?limits m make_direction] — run the frame loop
    over the direction [make_direction] builds for this run. Same
    contract as {!run}. *)
val traverse :
  ?config:config -> ?limits:Util.Limits.t -> Netlist.Model.t -> (env -> direction) -> result
