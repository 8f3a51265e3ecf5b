(** Dependent partitioning (Treichler et al., paper §III-A, Fig. 6):
    deriving partitions of one region from partitions of another through the
    pointer structure stored in region values.

    Two value shapes occur in sparse tensor storage:
    - {e range-valued} regions — the [pos] array stores [(lo, hi)] index
      ranges naming positions of the [crd] array (paper Fig. 7);
    - {e int-valued} regions — the [crd] array stores coordinate values naming
      indices of the child level's universe.

    [image] colors all destinations of pointers with the color of their
    source; [preimage] colors all sources with the colors of their
    destinations.  Preimages of shared structure may produce aliased
    partitions (Fig. 6b).

    Every operator reads the region's backing array directly.  The image
    operators first check that each source set lies in the region's index
    space, and raise [Error.Error] ([Partition_eval], naming the operator)
    when one does not.  The preimage operators bin the region's own index
    space with {!Partition.bin}.  Below, [n] is the region's size, [k] the
    number of colors and [B] the number of interval bounds in [p]'s
    subsets. *)

(** [image_ranges pos p target] where [p] partitions [pos]'s index space:
    color [c] receives the union of ranges [pos.(i)] over [i] in [p(c)],
    clipped to [target].  Per color: O(|p(c)| + r log r) for the [r]
    non-empty ranges, which are listed and sorted; scratch O(r). *)
val image_ranges : (int * int) Region.t -> Partition.t -> Iset.t -> Partition.t

(** [preimage_ranges pos p] where [p] partitions the pointed-to space: color
    [c] receives every [i] whose range [pos.(i)] intersects [p(c)].  One
    pass: O(B log B + n log B + hits + segments the ranges span); scratch
    O(B + k). *)
val preimage_ranges : (int * int) Region.t -> Partition.t -> Partition.t

(** [image_values crd p target] where [p] partitions [crd]'s index space:
    color [c] receives the set [{crd.(i) | i in p(c)}], clipped to
    [target].  Per color: O(|p(c)| + span), where the span is
    [min target .. max target]; scratch one byte per span element, shared
    by all colors (the span is at most about 75 K across [Datasets]). *)
val image_values : int Region.t -> Partition.t -> Iset.t -> Partition.t

(** [preimage_values crd p] where [p] partitions the value space: color [c]
    receives every position [i] with [crd.(i)] in [p(c)].  One pass:
    O(B log B + n log B + hits); scratch O(B + k). *)
val preimage_values : int Region.t -> Partition.t -> Partition.t
