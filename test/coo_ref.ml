(* Naive reference COO conversions: the list-based originals of
   [Coo.sort_dedup], [Tensor.to_coo] and [Tensor.of_coo], kept as the
   oracle for the differential properties in [Test_formats].  Output
   coordinates and crd are consed into lists and reversed; the comparator
   recurses through a closure per call. *)

open Spdistal_runtime
open Spdistal_formats

let compare_at (t : Coo.t) i j =
  let rec go d =
    if d = Coo.order t then 0
    else
      let c = compare t.Coo.coords.(d).(i) t.Coo.coords.(d).(j) in
      if c <> 0 then c else go (d + 1)
  in
  go 0

let sort_dedup ?(drop_zeros = false) (t : Coo.t) =
  let n = Coo.nnz t in
  let idx = Array.init n (fun i -> i) in
  Array.sort (compare_at t) idx;
  let out_coords = Array.map (fun _ -> ref []) t.Coo.coords in
  let out_vals = ref [] in
  let emit k v =
    if not (drop_zeros && v = 0.) then begin
      Array.iteri (fun d l -> l := t.Coo.coords.(d).(k) :: !l) out_coords;
      out_vals := v :: !out_vals
    end
  in
  let i = ref 0 in
  while !i < n do
    let k = idx.(!i) in
    let acc = ref t.Coo.vals.(k) in
    incr i;
    while !i < n && compare_at t k idx.(!i) = 0 do
      acc := !acc +. t.Coo.vals.(idx.(!i));
      incr i
    done;
    emit k !acc
  done;
  {
    Coo.dims = t.Coo.dims;
    coords = Array.map (fun l -> Array.of_list (List.rev !l)) out_coords;
    vals = Array.of_list (List.rev !out_vals);
  }

let to_coo (t : Tensor.t) =
  let acc = ref [] in
  Tensor.iter_nnz t (fun c _ v -> acc := (Array.copy c, v) :: !acc);
  Coo.make t.Tensor.dims (List.rev !acc)

let of_coo ~name ~formats ?mode_order ?(assume_sorted = false) coo =
  let ord = Coo.order coo in
  if Array.length formats <> ord then invalid_arg "Tensor.of_coo: format arity";
  let mode_order =
    match mode_order with Some p -> p | None -> Array.init ord (fun i -> i)
  in
  let coo =
    let permuted = Coo.permute coo mode_order in
    if assume_sorted then permuted else sort_dedup permuted
  in
  let n = Coo.nnz coo in
  let dims_storage = coo.Coo.dims in
  let pp = Array.make (max n 1) 0 in
  let parent_extent = ref 1 in
  let levels =
    Array.init ord (fun k ->
        let coord i = coo.Coo.coords.(k).(i) in
        match formats.(k) with
        | Level.Dense_k ->
            let dim = dims_storage.(k) in
            for i = 0 to n - 1 do
              pp.(i) <- (pp.(i) * dim) + coord i
            done;
            parent_extent := !parent_extent * dim;
            Level.Dense { dim }
        | Level.Singleton_k ->
            for i = 1 to n - 1 do
              if pp.(i) = pp.(i - 1) then
                invalid_arg
                  "Tensor.of_coo: Singleton level under shared parent \
                   positions"
            done;
            let crd = Array.make !parent_extent 0 in
            for i = 0 to n - 1 do
              crd.(pp.(i)) <- coord i
            done;
            Level.Singleton { crd = Region.of_array (name ^ ".crd") crd }
        | Level.Compressed_k | Level.Compressed_nonunique_k ->
            let unique = formats.(k) = Level.Compressed_k in
            let firsts = Array.make !parent_extent (-1) in
            let lasts = Array.make !parent_extent (-1) in
            let crd_rev = ref [] and count = ref 0 in
            let cur_parent = ref (-1) and cur_coord = ref (-1) in
            for i = 0 to n - 1 do
              let p = pp.(i) and c = coord i in
              if (not unique) || p <> !cur_parent || c <> !cur_coord then begin
                let j = !count in
                incr count;
                crd_rev := c :: !crd_rev;
                if firsts.(p) < 0 then firsts.(p) <- j;
                lasts.(p) <- j;
                cur_parent := p;
                cur_coord := c
              end;
              pp.(i) <- !count - 1
            done;
            let crd = Array.of_list (List.rev !crd_rev) in
            let pos = Array.make !parent_extent (0, -1) in
            let cursor = ref 0 in
            for p = 0 to !parent_extent - 1 do
              if firsts.(p) < 0 then pos.(p) <- (!cursor, !cursor - 1)
              else begin
                pos.(p) <- (firsts.(p), lasts.(p));
                cursor := lasts.(p) + 1
              end
            done;
            parent_extent := !count;
            Level.Compressed
              {
                pos = Region.of_array (name ^ ".pos") pos;
                crd = Region.of_array (name ^ ".crd") crd;
              })
  in
  let vals = Array.make !parent_extent 0. in
  for i = 0 to n - 1 do
    vals.(pp.(i)) <- vals.(pp.(i)) +. coo.Coo.vals.(i)
  done;
  let dims = Array.make ord 0 in
  Array.iteri (fun k logical -> dims.(logical) <- dims_storage.(k)) mode_order;
  {
    Tensor.name;
    dims;
    mode_order;
    levels;
    vals = Region.F.of_array (name ^ ".vals") vals;
  }
