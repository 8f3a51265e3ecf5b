(** Partitions: mappings from colors to (potentially overlapping) subsets of
    an index space (paper §III-A).

    A partition of an index space induces a partition of every region over
    that index space; sub-regions are obtained with {!Region.subregion}.
    Aliased (overlapping) partitions are first-class — preimages of shared
    structure routinely produce them (paper Fig. 6b). *)

(** Which index space a partition's colors enumerate.  [Flat] partitions
    are colored by piece id directly (one color per machine piece);
    [Grid_dim d] partitions are colored by the machine grid's dimension [d]
    (e.g. a row partition on a [gx * gy] grid has [gx] colors and every
    piece in the same grid row selects the same color).  The interpreter
    dispatches on this tag to map a piece id to its color — color {e
    counts} are ambiguous on square grids, where [grid.(0) = grid.(1)]. *)
type axis = Flat | Grid_dim of int

type t = {
  parent : Iset.t;  (** the partitioned index space *)
  subsets : Iset.t array;  (** indexed by color *)
  disjoint : bool;  (** [true] when subsets are pairwise disjoint *)
  axis : axis;  (** what the colors enumerate *)
}

(** [make ?axis parent subsets] checks each subset is contained in [parent]
    and computes disjointness.  [axis] defaults to [Flat]. *)
val make : ?axis:axis -> Iset.t -> Iset.t array -> t

val colors : t -> int
val subset : t -> int -> Iset.t
val axis : t -> axis

(** [equal_blocks is pieces] partitions [is] into [pieces] contiguous blocks
    of near-equal {e universe} extent: the span [min..max] of [is] is divided
    evenly and each block keeps the members of [is] that fall inside it.  This
    is the paper's {e universe partition} (§II-B). *)
val equal_blocks : ?axis:axis -> Iset.t -> int -> t

(** [equal_cardinality is pieces] partitions [is] into [pieces] contiguous
    groups of near-equal {e cardinality} — the paper's {e non-zero partition}
    (the tilde operator, §II-B). *)
val equal_cardinality : ?axis:axis -> Iset.t -> int -> t

(** [by_bounds is bounds] partitions by explicit per-color inclusive index
    bounds — the [partitionByBounds] operation of Table I. *)
val by_bounds : ?axis:axis -> Iset.t -> (int * int) array -> t

(** [by_bounds_strided is ~dim bounds] partitions a position space built of
    consecutive blocks of [dim] positions (a dense level under a sparse
    parent: position = parent * dim + coordinate): color [c] takes offsets
    [bounds.(c)] {e within every block}.  With one block it coincides with
    {!by_bounds}. *)
val by_bounds_strided : ?axis:axis -> Iset.t -> dim:int -> (int * int) array -> t

(** [by_value_ranges ~values is ranges] colors index [i] of [is] with color
    [c] iff [values.(i)] falls in [ranges.(c)] — the [partitionByValueRanges]
    operation of Table I, used to bucket [crd] arrays by coordinate value.
    One {!bin} pass.  Raises [Error.Error] ([Partition_eval]) when [is] is
    not a subset of [values]'s index space. *)
val by_value_ranges :
  ?axis:axis -> values:int Region.t -> Iset.t -> (int * int) array -> t

(** [bin dom sets ~lo ~hi] is, per color [c], the members [i] of [dom] whose
    query range [lo i .. hi i] meets [sets.(c)]; an empty query range
    ([hi i < lo i]) meets no color.  The binning scan shared by
    {!by_value_ranges} and the preimage operators of [Dependent]: one pass
    over [dom] in increasing order, each element's colors found by binary
    search over the [B] sorted interval bounds of [sets].  Time
    O(B log B + |dom| log B + hits + segments spanned by the query ranges);
    scratch O(B + colors), plus the output runs. *)
val bin : Iset.t -> Iset.t array -> lo:(int -> int) -> hi:(int -> int) -> Iset.t array

(** [union_of_colors p] is the set of indices covered by some color. *)
val union_of_colors : t -> Iset.t

(** [is_complete p] holds when every parent index is covered. *)
val is_complete : t -> bool

val pp : Format.formatter -> t -> unit
