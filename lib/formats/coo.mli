(** Coordinate-list (COO) tensors: the interchange format every level-based
    tensor is assembled from and lowered back to.

    Stored struct-of-arrays: [coords.(d).(k)] is the coordinate of non-zero
    [k] along dimension [d]. *)

type t = {
  dims : int array;  (** universe size of each dimension *)
  coords : int array array;  (** [order] arrays of length [nnz] *)
  vals : float array;
}

val order : t -> int
val nnz : t -> int

(** [make dims entries] from a list of (coordinate tuple, value). Validates
    bounds. *)
val make : int array -> (int array * float) list -> t

(** [of_arrays dims coords vals] wraps struct-of-arrays storage (no copy),
    validating arity and bounds like {!make}. *)
val of_arrays : int array -> int array array -> float array -> t

(** Lexicographic sort (by coordinate tuple) combined with summing duplicate
    coordinates. Drops explicit zeros produced by cancellation only if
    [drop_zeros]. *)
val sort_dedup : ?drop_zeros:bool -> t -> t

(** [permute t perm] reorders dimensions: new dimension [d] is old dimension
    [perm.(d)] (e.g. [|1;0|] transposes a matrix). *)
val permute : t -> int array -> t

val iter : (int array -> float -> unit) -> t -> unit

(** Association list view, for tests. *)
val to_alist : t -> (int list * float) list

val equal : t -> t -> bool
