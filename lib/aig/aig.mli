(** And-Inverter Graphs with structural hashing and two-level rewrite rules.

    The manager follows the circuit-based Boolean reasoning design of
    Kuehlmann et al. (DAC'01), which the paper adopts as its state-set
    representation: a monotone node store, complemented edges, and a hashing
    scheme that gives {e semi-canonicity} — structurally equal (and several
    locally rewritable) functions map to the same node, so many merge points
    between quantification cofactors are discovered for free.

    Literals are integers: literal [2*n] is the output of node [n], literal
    [2*n+1] its complement. Node [0] is the constant; {!false_} is literal
    [0] and {!true_} is literal [1]. Variables (primary inputs) are explicit
    leaf nodes indexed by a dense [var] index. *)

type t

(** A literal: node id with a complement bit in the LSB. *)
type lit = int

(** A variable index (dense, starting at 0). *)
type var = int

val create : ?initial_capacity:int -> unit -> t

val false_ : lit
val true_ : lit

(** {1 Variables} *)

(** [fresh_var t] allocates the next variable and returns its index. *)
val fresh_var : t -> var

(** [var t v] is the positive literal of variable [v], allocating variables
    up to [v] if needed. *)
val var : t -> var -> lit

(** Number of variables allocated so far. *)
val num_vars : t -> int

(** [var_of_lit t l] is [Some v] when [l] points at the leaf node of
    variable [v] (in either phase). *)
val var_of_lit : t -> lit -> var option

(** {1 Construction} *)

val not_ : lit -> lit
val and_ : t -> lit -> lit -> lit
val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val iff_ : t -> lit -> lit -> lit
val implies : t -> lit -> lit -> lit
val ite : t -> lit -> lit -> lit -> lit
val and_list : t -> lit list -> lit
val or_list : t -> lit list -> lit

(** {1 Structure access} *)

(** Total number of nodes ever created (including constant and variables). *)
val num_nodes : t -> int

(** Number of AND nodes ever created. *)
val num_ands : t -> int

val node_of_lit : lit -> int
val is_complemented : lit -> bool
val lit_of_node : int -> lit
val is_const : lit -> bool
val is_var : t -> lit -> bool
val is_and : t -> lit -> bool

(** Fanins of an AND node (as literals). Raises [Invalid_argument] on
    non-AND nodes. *)
val fanins : t -> int -> lit * lit

(** Topological level: 0 for leaves, 1 + max fanin level for AND nodes. *)
val level : t -> int -> int

(** {1 Cones} *)

(** [cone t roots] is the list of node ids reachable from [roots]
    (constant and variable leaves excluded), in topological order
    (fanins first). *)
val cone : t -> lit list -> int list

(** [size t l] is the number of AND nodes in the cone of [l]. *)
val size : t -> lit -> int

val size_list : t -> lit list -> int

(** [support t l] is the sorted list of variables in the cone of [l]. *)
val support : t -> lit -> var list

val support_list : t -> lit list -> var list

(** [depends_on t l v] is true when variable [v] is in the support of [l]. *)
val depends_on : t -> lit -> var -> bool

(** {1 Functional operations} *)

(** [cofactor t l ~v ~phase] is l with variable [v] fixed to [phase],
    rebuilt through the hashing front-end. *)
val cofactor : t -> lit -> v:var -> phase:bool -> lit

(** [compose t l ~subst] substitutes variables by literal functions.
    [subst v = None] leaves [v] untouched. This is the paper's
    quantification-by-substitution primitive. *)
val compose : t -> lit -> subst:(var -> lit option) -> lit

(** [rebuild t ~repl l] reconstructs the cone of [l] through the hashing
    front-end, replacing the output of node [n] by literal [repl n] wherever
    [repl n <> lit_of_node n]. This is how merge substitutions from the
    sweeping engine are applied. *)
val rebuild : t -> repl:(int -> lit) -> lit -> lit

(** [import t ~source ~subst l] copies the cone of [l] — a literal of the
    {e source} manager — into [t], mapping every source variable [v] to
    the literal [subst v] of [t]. Used to combine separately built
    circuits (e.g. the two sides of an equivalence-checking miter) in one
    manager. *)
val import : t -> source:t -> subst:(var -> lit) -> lit -> lit

(** {1 Evaluation and simulation} *)

(** [eval t l env] evaluates under a total variable assignment. *)
val eval : t -> lit -> (var -> bool) -> bool

(** Three-valued evaluation under a partial assignment: [None] inputs are
    unknown (X), and the result is [None] exactly when the known inputs do
    not determine the output. X-propagation follows the usual dominance
    rules ([0 ∧ X = 0]). Used for counterexample minimization. *)
val eval3 : t -> lit -> (var -> bool option) -> bool option

(** [simulate t l words] computes 64 parallel evaluations; [words v] is the
    simulation word of variable [v]. *)
val simulate : t -> lit -> (var -> int64) -> int64

(** [simulate_cone t nodes words] returns the simulation word of every node
    in [nodes] (which must be topologically ordered, e.g. from {!cone});
    the result maps node ids to words and also covers the leaves. This is
    the simple reference path; repeated evaluation of one cone should
    {!compile_cone} once and run {!cone_eval_run} per word instead. *)
val simulate_cone : t -> int list -> (var -> int64) -> (int, int64) Hashtbl.t

(** {2 Compiled cones}

    A cone flattened once into dense instruction arrays, so each 64-lane
    evaluation is a single tight loop with no hashing — the substrate of
    the bit-parallel simulation engine ([Sweep.Sim]). The dense numbering
    covers the constant node (always index 0), every support variable leaf
    and every AND node of the cone, in ascending node-id (hence
    topological) order. Compiling pins the cone's structure: nodes added
    to the manager afterwards are simply not part of the evaluation. *)

type cone_eval

val compile_cone : t -> roots:lit list -> cone_eval

(** Number of dense slots (constant + leaves + AND nodes). *)
val cone_eval_length : cone_eval -> int

(** [cone_eval_node ev i] is the node id at dense index [i]. *)
val cone_eval_node : cone_eval -> int -> int

(** [cone_eval_index ev n] is the dense index of node [n], or [-1] when
    [n] is not part of the compiled cone. *)
val cone_eval_index : cone_eval -> int -> int

(** [cone_eval_run ev ~words ~out] evaluates one 64-pattern word for every
    dense slot into [out] (length ≥ {!cone_eval_length}); [words v] is the
    input word of variable [v]. Raises [Invalid_argument] when [out] is
    too short. *)
val cone_eval_run : cone_eval -> words:(var -> int64) -> out:int64 array -> unit

(** Word of a literal given the word of its node. *)
val lit_word : lit -> int64 -> int64

(** {1 Reporting} *)

val pp_lit : t -> Format.formatter -> lit -> unit

type stats = { nodes : int; ands : int; vars : int; strash_hits : int; rewrites : int }

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
