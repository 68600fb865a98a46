(** The fuzzing campaign driver shared by [cbq_mc fuzz] and the tests.

    Per-model seeds come from {!Gen.derive_seed}, so a campaign over
    [count] models is a pure function of the master seed — any failing
    index can be replayed in isolation. Progress is visible through the
    [fuzz.*] {!Obs} counters ([fuzz.models], [fuzz.failures],
    [fuzz.fail.<label>], [fuzz.shrink.candidates], [fuzz.shrink.accepted],
    [fuzz.corpus.saved]). *)

type failure_report = {
  seed : int;  (** the per-model generator seed (not the master seed) *)
  original_failure : Oracle.failure;
  failure : Oracle.failure;  (** after shrinking (may differ in class) *)
  model : Netlist.Model.t;  (** the minimized model *)
  shrunk : Shrink.result option;
  entry : Corpus.entry option;  (** written when [corpus_dir] was given *)
}

type result = { count : int; failures : failure_report list }

(** [run ~seed ~count ()] generates and oracle-checks [count] models.
    [on_model i model_seed] fires before model [i] runs (progress hook).
    Failures are shrunk (unless [shrink:false]) and persisted to
    [corpus_dir] when given.

    [jobs > 1] shards the campaign indices across that many domains,
    clamped to [count] and to {!Par.Pool.default_jobs} (worker [w] checks
    and shrinks indices [w], [w+jobs], …). Per-model seeds come from
    {!Gen.derive_seed}, so every index generates the same model at any
    [jobs]; corpus writes are funnelled through the calling domain in
    index order after all shards join, so the failure list and the
    corpus on disk are identical to a sequential campaign's. The only
    parallel-mode differences: [on_model] fires from worker domains
    (serialized by a mutex, not in index order), and wall-clock interleaving
    of the [fuzz.*] counters. *)
val run :
  ?knobs:Gen.knobs ->
  ?config:Oracle.config ->
  ?corpus_dir:string ->
  ?shrink:bool ->
  ?max_shrink_candidates:int ->
  ?on_model:(int -> int -> unit) ->
  ?jobs:int ->
  seed:int ->
  count:int ->
  unit ->
  result
