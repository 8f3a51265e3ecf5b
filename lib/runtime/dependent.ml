(* The image operators check once per source set that the set lies in the
   region, then read the backing array directly. *)
let check_source op (r : _ Region.t) c src =
  if not (Iset.subset src r.Region.ispace) then
    Error.fail Error.Partition_eval
      "Dependent.%s: the source set of color %d leaves region %s" op c
      r.Region.name

let image_ranges (pos : (int * int) Region.t) (p : Partition.t) (target : Iset.t)
    =
  let subsets =
    Array.mapi
      (fun c src ->
        check_source "image_ranges" pos c src;
        let ivals =
          Iset.fold
            (fun i acc ->
              let lo, hi = pos.Region.data.(i) in
              if hi < lo then acc else (lo, hi) :: acc)
            src []
        in
        Iset.inter target (Iset.of_intervals ivals))
      p.Partition.subsets
  in
  Partition.make ~axis:p.Partition.axis target subsets

let preimage_ranges (pos : (int * int) Region.t) (p : Partition.t) =
  let dom = pos.Region.ispace and data = pos.Region.data in
  let subsets =
    Partition.bin dom p.Partition.subsets
      ~lo:(fun i -> fst data.(i))
      ~hi:(fun i -> snd data.(i))
  in
  Partition.make ~axis:p.Partition.axis dom subsets

let image_values (crd : int Region.t) (p : Partition.t) (target : Iset.t) =
  let data = crd.Region.data in
  let tlo, thi =
    if Iset.is_empty target then (0, -1)
    else (Iset.min_elt target, Iset.max_elt target)
  in
  (* One mark byte per element of the target's span, reused across colors. *)
  let marks = Bytes.make (thi - tlo + 1) '\000' in
  let marked k = Bytes.unsafe_get marks (k - tlo) <> '\000' in
  let subsets =
    Array.mapi
      (fun c src ->
        check_source "image_values" crd c src;
        Bytes.fill marks 0 (Bytes.length marks) '\000';
        Iset.iter_intervals
          (fun lo hi ->
            for i = lo to hi do
              let v = data.(i) in
              if v >= tlo && v <= thi then Bytes.unsafe_set marks (v - tlo) '\001'
            done)
          src;
        (* Read the marked runs back in order, inside the target only. *)
        let runs =
          Iset.fold_intervals
            (fun lo hi acc ->
              let acc = ref acc and k = ref lo in
              while !k <= hi do
                if not (marked !k) then incr k
                else begin
                  let s = !k in
                  while !k <= hi && marked !k do
                    incr k
                  done;
                  acc := (s, !k - 1) :: !acc
                end
              done;
              !acc)
            target []
        in
        Iset.of_sorted_intervals (List.rev runs))
      p.Partition.subsets
  in
  Partition.make ~axis:p.Partition.axis target subsets

let preimage_values (crd : int Region.t) (p : Partition.t) =
  let dom = crd.Region.ispace and data = crd.Region.data in
  let v i = data.(i) in
  let subsets = Partition.bin dom p.Partition.subsets ~lo:v ~hi:v in
  Partition.make ~axis:p.Partition.axis dom subsets
