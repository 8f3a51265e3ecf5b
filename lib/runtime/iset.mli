(** Sets of integer indices represented as sorted lists of disjoint, inclusive
    intervals.

    Interval sets are the universal currency of the runtime: index spaces,
    partition subsets and transfer footprints are all interval sets.  The
    representation is canonical — intervals are sorted, disjoint and
    non-adjacent — so structural equality coincides with set equality. *)

type t

(** {1 Construction} *)

val empty : t

(** [interval lo hi] is the set [{lo, ..., hi}] (inclusive). Empty if
    [hi < lo]. *)
val interval : int -> int -> t

val singleton : int -> t

(** [range n] is the set [{0, ..., n-1}], the universe of an [n]-element
    dimension. *)
val range : int -> t

(** [of_intervals l] builds a set from arbitrary (possibly overlapping,
    unsorted) inclusive intervals. *)
val of_intervals : (int * int) list -> t

(** [of_sorted_intervals l] is [of_intervals l] for [l] sorted by lower
    bound, in linear time (no sort). *)
val of_sorted_intervals : (int * int) list -> t

(** [of_list xs] builds a set from arbitrary elements. *)
val of_list : int list -> t

(** {1 Queries} *)

val is_empty : t -> bool
val mem : int -> t -> bool
val cardinal : t -> int

(** Number of maximal intervals in the canonical form. *)
val interval_count : t -> int

(** [min_elt t] and [max_elt t] raise [Not_found] on the empty set. *)
val min_elt : t -> int

val max_elt : t -> int
val equal : t -> t -> bool
val subset : t -> t -> bool

(** [disjoint a b] is [true] iff [a] and [b] share no element. *)
val disjoint : t -> t -> bool

(** [intersects_interval t lo hi] is [true] iff [t] contains an element of
    [{lo..hi}]. *)
val intersects_interval : t -> int -> int -> bool

(** {1 Set operations} *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val union_list : t list -> t

(** {1 Traversal} *)

val to_intervals : t -> (int * int) list
val fold_intervals : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val iter_intervals : (int -> int -> unit) -> t -> unit

(** [iter f t] applies [f] to every element in increasing order. *)
val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list

(** [nth t k] is the [k]-th smallest element. Raises [Invalid_argument] when
    [k] is out of bounds. *)
val nth : t -> int -> int

val pp : Format.formatter -> t -> unit
