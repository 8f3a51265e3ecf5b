type axis = Flat | Grid_dim of int

type t = {
  parent : Iset.t;
  subsets : Iset.t array;
  disjoint : bool;
  axis : axis;
}

let compute_disjoint subsets =
  (* Pairwise disjointness via a running union: total cardinality of the
     union equals the sum of cardinalities iff all subsets are disjoint. *)
  let sum = Array.fold_left (fun n s -> n + Iset.cardinal s) 0 subsets in
  let uni = Iset.union_list (Array.to_list subsets) in
  Iset.cardinal uni = sum

let make ?(axis = Flat) parent subsets =
  Array.iter
    (fun s ->
      if not (Iset.subset s parent) then
        Error.fail Error.Partition_eval "Partition.make: subset escapes parent")
    subsets;
  { parent; subsets; disjoint = compute_disjoint subsets; axis }

let colors t = Array.length t.subsets
let subset t c = t.subsets.(c)
let axis t = t.axis

let block_bounds lo hi pieces =
  (* [pieces] near-equal inclusive blocks covering [lo..hi]. *)
  let n = hi - lo + 1 in
  Array.init pieces (fun c ->
      let b_lo = lo + c * n / pieces and b_hi = lo + ((c + 1) * n / pieces) - 1 in
      (b_lo, b_hi))

let equal_blocks ?(axis = Flat) is pieces =
  if pieces <= 0 then
    Error.fail Error.Partition_eval "Partition.equal_blocks: %d pieces" pieces;
  if Iset.is_empty is then
    { parent = is; subsets = Array.make pieces Iset.empty; disjoint = true; axis }
  else
    let lo = Iset.min_elt is and hi = Iset.max_elt is in
    let subsets =
      Array.map
        (fun (blo, bhi) -> Iset.inter is (Iset.interval blo bhi))
        (block_bounds lo hi pieces)
    in
    { parent = is; subsets; disjoint = true; axis }

let equal_cardinality ?(axis = Flat) is pieces =
  if pieces <= 0 then
    Error.fail Error.Partition_eval "Partition.equal_cardinality: %d pieces" pieces;
  let n = Iset.cardinal is in
  let subsets =
    Array.init pieces (fun c ->
        let k_lo = c * n / pieces and k_hi = ((c + 1) * n / pieces) - 1 in
        if k_hi < k_lo then Iset.empty
        else
          (* Elements of rank k_lo..k_hi. Both ranks map to concrete elements;
             the subset is the intersection with that element interval, which
             is exact because ranks are contiguous. *)
          let e_lo = Iset.nth is k_lo and e_hi = Iset.nth is k_hi in
          Iset.inter is (Iset.interval e_lo e_hi))
  in
  { parent = is; subsets; disjoint = true; axis }

let by_bounds ?(axis = Flat) is bounds =
  let subsets =
    Array.map (fun (lo, hi) -> Iset.inter is (Iset.interval lo hi)) bounds
  in
  { parent = is; subsets; disjoint = compute_disjoint subsets; axis }

let by_bounds_strided ?(axis = Flat) is ~dim bounds =
  if dim <= 0 then Error.fail Error.Partition_eval "by_bounds_strided: dim %d" dim;
  let last = if Iset.is_empty is then -1 else Iset.max_elt is in
  let subsets =
    Array.map
      (fun (lo, hi) ->
        let ivs = ref [] in
        let base = ref 0 in
        while !base <= last do
          ivs := (!base + lo, !base + hi) :: !ivs;
          base := !base + dim
        done;
        Iset.inter is (Iset.of_intervals !ivs))
      bounds
  in
  { parent = is; subsets; disjoint = compute_disjoint subsets; axis }

let bin dom sets ~lo ~hi =
  (* Elementary segments of [sets]: segment [k] covers
     [bnd.(k) .. bnd.(k+1) - 1] and lies in exactly the colors [cols.(k)]. *)
  let pts =
    Array.fold_left
      (fun acc s -> Iset.fold_intervals (fun lo hi acc -> lo :: (hi + 1) :: acc) s acc)
      [] sets
  in
  let bnd = Array.of_list (List.sort_uniq Int.compare pts) in
  let nseg = max 0 (Array.length bnd - 1) and n = Array.length sets in
  let cols = Array.make nseg [] in
  (* Largest [k] with [bnd.(k) <= x], or [-1]. *)
  let seg_of x =
    let lo = ref 0 and hi = ref (Array.length bnd - 1) and r = ref (-1) in
    while !lo <= !hi do
      let m = (!lo + !hi) / 2 in
      if bnd.(m) <= x then (
        r := m;
        lo := m + 1)
      else hi := m - 1
    done;
    !r
  in
  Array.iteri
    (fun c s ->
      Iset.iter_intervals
        (fun lo hi ->
          for k = seg_of lo to seg_of hi do
            cols.(k) <- c :: cols.(k)
          done)
        s)
    sets;
  (* Per color: the open run [first..last] and the closed runs, reversed.
     Members arrive in increasing order, so runs come out canonical. *)
  let first = Array.make n 0 and last = Array.make n min_int in
  let runs = Array.make n [] in
  let add i c =
    let l = last.(c) in
    if l = i - 1 then last.(c) <- i
    else if l <> i then begin
      if l <> min_int then runs.(c) <- (first.(c), l) :: runs.(c);
      first.(c) <- i;
      last.(c) <- i
    end
  in
  Iset.iter
    (fun i ->
      let l = lo i and h = hi i in
      if l <= h then begin
        let k = ref (max 0 (seg_of l)) in
        while !k < nseg && bnd.(!k) <= h do
          List.iter (add i) cols.(!k);
          incr k
        done
      end)
    dom;
  Array.init n (fun c ->
      let r =
        if last.(c) = min_int then runs.(c) else (first.(c), last.(c)) :: runs.(c)
      in
      Iset.of_sorted_intervals (List.rev r))

let by_value_ranges ?(axis = Flat) ~values is ranges =
  if not (Iset.subset is values.Region.ispace) then
    Error.fail Error.Partition_eval
      "Partition.by_value_ranges: index set leaves region %s" values.Region.name;
  let v i = values.Region.data.(i) in
  let sets = Array.map (fun (lo, hi) -> Iset.interval lo hi) ranges in
  let subsets = bin is sets ~lo:v ~hi:v in
  { parent = is; subsets; disjoint = compute_disjoint subsets; axis }

let union_of_colors t = Iset.union_list (Array.to_list t.subsets)
let is_complete t = Iset.equal (union_of_colors t) t.parent

let pp fmt t =
  Format.fprintf fmt "@[<v>partition (%s) of %a:@,"
    (if t.disjoint then "disjoint" else "aliased")
    Iset.pp t.parent;
  Array.iteri (fun c s -> Format.fprintf fmt "  %d -> %a@," c Iset.pp s) t.subsets;
  Format.fprintf fmt "@]"
