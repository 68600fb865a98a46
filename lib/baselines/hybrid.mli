(** The combination the paper advocates (§4): circuit-based quantification
    as a {e pre-processing} step in front of an all-solution SAT pre-image.

    Each pre-image first runs partial circuit-based quantification with an
    aggressive growth budget — cheap input variables are eliminated
    structurally — and hands only the {e residual} (aborted) variables to
    the enumeration engine, which therefore explores a decision space with
    far fewer input variables. *)

type iteration = {
  index : int;
  eliminated_by_cbq : int; (* inputs removed by circuit quantification *)
  enumerated : int; (* residual inputs left to the SAT engine *)
  enumerations : int; (* SAT solutions the residual cost *)
  frontier_size : int;
}

type result = {
  verdict : Verdict.t;
  iterations : iteration list;
  total_enumerations : int;
  seconds : float;
}

val pp_result : Format.formatter -> result -> unit

(** [strict_growth q] is [q] under the tight growth budget the hybrid
    engine runs with (abort early, let SAT finish): the paper's
    recommended division of labour. *)
val strict_growth : Cbq.Quantify.config -> Cbq.Quantify.config

(** [run ?quant_config ?max_iterations ?max_enumerations ?limits m]. The
    default [quant_config] is [strict_growth Cbq.Quantify.default].
    [limits] is a run-wide governor as in {!Cofactor_preimage.run}. *)
val run :
  ?quant_config:Cbq.Quantify.config ->
  ?max_iterations:int ->
  ?max_enumerations:int ->
  ?limits:Util.Limits.t ->
  Netlist.Model.t ->
  result
