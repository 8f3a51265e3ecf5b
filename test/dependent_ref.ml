(* Naive reference dependent-partitioning operators: the list-based
   originals of [Dependent] and [Partition.by_value_ranges], kept as the
   oracle for the differential properties in [Test_dependent].  Every
   element goes through [Region.get] and is tested against every color;
   subsets are built by consing and sorting. *)

open Spdistal_runtime

(* Disjointness checked pair by pair, independently of [Partition]. *)
let partition ~axis parent subsets =
  let n = Array.length subsets in
  let disjoint = ref true in
  for c = 0 to n - 1 do
    for d = c + 1 to n - 1 do
      if not (Iset.disjoint subsets.(c) subsets.(d)) then disjoint := false
    done
  done;
  { Partition.parent; subsets; disjoint = !disjoint; axis }

let image_ranges (pos : (int * int) Region.t) (p : Partition.t) target =
  let subsets =
    Array.map
      (fun src ->
        let ivals =
          Iset.fold
            (fun i acc ->
              let lo, hi = Region.get pos i in
              if hi < lo then acc else (lo, hi) :: acc)
            src []
        in
        Iset.inter target (Iset.of_intervals ivals))
      p.Partition.subsets
  in
  partition ~axis:p.Partition.axis target subsets

let preimage_ranges (pos : (int * int) Region.t) (p : Partition.t) =
  let buckets = Array.map (fun _ -> ref []) p.Partition.subsets in
  Region.iter
    (fun i (lo, hi) ->
      if lo <= hi then
        Array.iteri
          (fun c dst ->
            if Iset.intersects_interval dst lo hi then
              buckets.(c) := (i, i) :: !(buckets.(c)))
          p.Partition.subsets)
    pos;
  let subsets = Array.map (fun b -> Iset.of_intervals !b) buckets in
  partition ~axis:p.Partition.axis pos.Region.ispace subsets

let image_values (crd : int Region.t) (p : Partition.t) target =
  let subsets =
    Array.map
      (fun src ->
        let vals = Iset.fold (fun i acc -> Region.get crd i :: acc) src [] in
        Iset.inter target (Iset.of_list vals))
      p.Partition.subsets
  in
  partition ~axis:p.Partition.axis target subsets

let preimage_values (crd : int Region.t) (p : Partition.t) =
  let buckets = Array.map (fun _ -> ref []) p.Partition.subsets in
  Region.iter
    (fun i v ->
      Array.iteri
        (fun c dst -> if Iset.mem v dst then buckets.(c) := (i, i) :: !(buckets.(c)))
        p.Partition.subsets)
    crd;
  let subsets = Array.map (fun b -> Iset.of_intervals !b) buckets in
  partition ~axis:p.Partition.axis crd.Region.ispace subsets

let by_value_ranges ~axis ~values is ranges =
  let buckets = Array.map (fun _ -> ref []) ranges in
  Iset.iter
    (fun i ->
      let v = Region.get values i in
      Array.iteri
        (fun c (lo, hi) -> if v >= lo && v <= hi then buckets.(c) := i :: !(buckets.(c)))
        ranges)
    is;
  let subsets = Array.map (fun b -> Iset.of_list !b) buckets in
  partition ~axis is subsets
