(** Growable arrays of unboxed integers.

    The work-horse container of the SAT solver and the AIG manager: watcher
    lists, clause arenas, node cones and literal stacks are all [Vec_int.t].
    Operations never shrink the backing store unless {!shrink_capacity} is
    called explicitly. *)

type t

val create : ?capacity:int -> unit -> t

(** [make n x] is a vector holding [n] copies of [x]. *)
val make : int -> int -> t

val length : t -> int
val is_empty : t -> bool

(** [get v i] and [set v i x] check bounds and raise [Invalid_argument]. *)
val get : t -> int -> int

val set : t -> int -> int -> unit
val push : t -> int -> unit

(** [pop v] removes and returns the last element. Raises [Invalid_argument]
    on an empty vector. *)
val pop : t -> int

(** [top v] is the last element without removing it. *)
val top : t -> int

(** [clear v] resets the length to zero, keeping the capacity. *)
val clear : t -> unit

(** [resize v n x] grows or truncates the vector to length [n], filling new
    slots with [x]. *)
val resize : t -> int -> int -> unit

(** [remove_unordered v i] deletes index [i] by swapping in the last element
    (constant time, does not preserve order). *)
val remove_unordered : t -> int -> unit

val iter : (int -> unit) -> t -> unit
val iteri : (int -> int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val exists : (int -> bool) -> t -> bool
val to_list : t -> int list
val of_list : int list -> t
val to_array : t -> int array
val of_array : int array -> t

(** [blit_push dst src] appends the whole contents of [src] to [dst]. *)
val blit_push : t -> t -> unit

val sort : t -> unit
val shrink_capacity : t -> unit
val pp : Format.formatter -> t -> unit
