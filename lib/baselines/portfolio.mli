(** Portfolio engine: race the whole suite, first decisive verdict wins.

    Every selected engine verifies its own thawed clone of the model
    ([Par.Clone]) under its own fresh {!Util.Limits} governor, on a
    domain pool ([Par.Race]). The first engine to return a {e decided}
    verdict — [Proved] or [Falsified] — wins the race; the losers'
    governors are cancelled and each loser returns its anytime
    [Undecided] at its next governor checkpoint. Decided verdicts agree
    with single-engine runs by construction: racing changes who answers
    first, never what an engine answers on its own clone.

    When no engine decides (all out of budget, crashed, or the model is
    beyond every engine), the portfolio verdict is [Undecided]. *)

type engine_outcome =
  | Verdict of Verdict.t  (** the engine ran to completion *)
  | Skipped  (** race decided before this engine started *)
  | Crashed of string

type result = {
  verdict : Verdict.t;
  trace : Cbq.Trace.t option;  (** the winner's counterexample, when it built one *)
  winner : string option;  (** winning engine name; [None] if nothing decided *)
  outcomes : (string * engine_outcome) list;  (** every entrant, in suite order *)
  seconds : float;  (** wall-clock for the whole race *)
}

val pp_result : Format.formatter -> result -> unit

(** [run ?config ?engines ?jobs ?budget m] races the named engines
    (default: the whole suite) over up to [jobs] domains (default: one
    per engine, capped by [Par.Pool.default_jobs]).

    Every entrant runs under its own {!Util.Limits.of_budget}[ budget]
    governor (default: {!Util.Limits.no_budget}), so each engine gets
    the same caps and the racer can cancel the losers.

    @raise Invalid_argument on an unknown engine name or an empty
    engine list. *)
val run :
  ?config:Suite.config ->
  ?engines:string list ->
  ?jobs:int ->
  ?budget:Util.Limits.budget ->
  Netlist.Model.t ->
  result
