(** The full engine table: every verification engine in the repo behind
    one uniform signature.

    This is the single registry consumed by the CLI ([run], [submit],
    [batch]), the serve daemon, the fuzz oracle's differential check, the
    portfolio racer and the tests — one place to add an engine and have
    every consumer pick it up. Each engine takes a {!Util.Limits}
    governor and a model and returns a {!detail}: an anytime
    {!Verdict.t}, the counterexample trace and proof invariant when it
    can produce them, and a printer for its own report.

    Engines mutate their model's AIG manager while they run, so callers
    that reuse one model across engines must hand each engine its own
    clone (see [Par.Clone]); the table itself takes no position on
    cloning. *)

type config = {
  bmc_depth : int;  (** BMC unrolling ceiling *)
  induction_k : int;  (** k-induction ceiling *)
  make_trace : bool;  (** ask CBQ engines to rebuild counterexample traces *)
  quant : Cbq.Quantify.config;
      (** quantification settings of the CBQ engines (backend, sweeping
          domains, budgets); [hybrid] runs them under
          {!Hybrid.strict_growth}, the other engines ignore it *)
}

(** The bounds of the portfolio race, the serve daemon and the fuzz
    oracle: BMC to depth 30, k-induction to k = 25. *)
val default_config : config

(** The bounds of a lone engine run ([cbq-mc run]): BMC to depth 100,
    k-induction to k = 50, so a single BMC run can reach counterexamples
    that the race leaves to the unbounded engines. *)
val standalone_config : config

(** Everything one engine run reports. *)
type detail = {
  verdict : Verdict.t;
  trace : Cbq.Trace.t option;  (** the counterexample, when the engine built one *)
  invariant : Aig.lit option;
      (** on [Proved], an inductive invariant to check with
          {!Cbq.Certify.check} (CBQ engines only) *)
  pp : verbose:bool -> Format.formatter -> unit;
      (** the engine's own result line and, with [verbose], its
          per-iteration lines *)
}

type engine = {
  name : string;
  run : limits:Util.Limits.t -> Netlist.Model.t -> Verdict.t * Cbq.Trace.t option;
      (** [detail]'s verdict and trace *)
  detail : limits:Util.Limits.t -> Netlist.Model.t -> detail;
}

(** All engines, in the canonical (deterministic) order:
    cbq-bwd, cbq-fwd, bdd-bwd, bdd-fwd, bmc, induction, cofactor, hybrid. *)
val engines : ?config:config -> unit -> engine list

(** Names of {!engines}, in the same order. *)
val names : string list

(** Accepted spellings that are not in {!names}, each with the entry it
    denotes: [("cbq", "cbq-bwd")]. *)
val aliases : (string * string) list

(** [canonical_name name] — the {!names} entry [name] denotes: itself, or
    the target of an alias ([cbq] is [cbq-bwd]); [None] for an unknown
    name. *)
val canonical_name : string -> string option

(** [find ?config name] — the engine {!canonical_name} resolves [name]
    to, or [None] for an unknown name. *)
val find : ?config:config -> string -> engine option
