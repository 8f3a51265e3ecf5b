type t = { dims : int array; coords : int array array; vals : float array }

let order t = Array.length t.dims
let nnz t = Array.length t.vals

let check_coord dims d cd =
  if cd < 0 || cd >= dims.(d) then
    invalid_arg
      (Printf.sprintf "Coo.make: coord %d out of bounds [0,%d) in dim %d" cd
         dims.(d) d)

let make dims entries =
  let order = Array.length dims in
  let n = List.length entries in
  let coords = Array.init order (fun _ -> Array.make n 0) in
  let vals = Array.make n 0. in
  List.iteri
    (fun k (c, v) ->
      if Array.length c <> order then invalid_arg "Coo.make: arity mismatch";
      Array.iteri
        (fun d cd ->
          check_coord dims d cd;
          coords.(d).(k) <- cd)
        c;
      vals.(k) <- v)
    entries;
  { dims; coords; vals }

let of_arrays dims coords vals =
  let order = Array.length dims and n = Array.length vals in
  if
    Array.length coords <> order
    || Array.exists (fun c -> Array.length c <> n) coords
  then invalid_arg "Coo.make: arity mismatch";
  for k = 0 to n - 1 do
    for d = 0 to order - 1 do
      check_coord dims d coords.(d).(k)
    done
  done;
  { dims; coords; vals }

(* Lexicographic comparison of entries [i] and [j] from dimension [d] on;
   a plain recursive function, so a comparison allocates nothing. *)
let rec compare_from coords i j d =
  if d = Array.length coords then 0
  else
    let col = coords.(d) in
    let c = Int.compare col.(i) col.(j) in
    if c <> 0 then c else compare_from coords i j (d + 1)

let compare_at t i j = compare_from t.coords i j 0

let sort_dedup ?(drop_zeros = false) t =
  let n = nnz t in
  let idx = Array.init n (fun i -> i) in
  Array.sort (compare_at t) idx;
  (* Walk sorted entries, summing runs of equal coordinates; returns the
     number of entries kept, writing them out when [fill].  Run once to
     count and once to fill arrays of exactly that size. *)
  let walk ~fill out_coords out_vals =
    let m = ref 0 and i = ref 0 in
    while !i < n do
      let k = idx.(!i) in
      let acc = ref t.vals.(k) in
      incr i;
      while !i < n && compare_at t k idx.(!i) = 0 do
        acc := !acc +. t.vals.(idx.(!i));
        incr i
      done;
      if not (drop_zeros && !acc = 0.) then begin
        if fill then begin
          for d = 0 to Array.length out_coords - 1 do
            out_coords.(d).(!m) <- t.coords.(d).(k)
          done;
          out_vals.(!m) <- !acc
        end;
        incr m
      end
    done;
    !m
  in
  let kept = walk ~fill:false [||] [||] in
  let coords = Array.map (fun _ -> Array.make kept 0) t.coords in
  let vals = Array.make kept 0. in
  ignore (walk ~fill:true coords vals);
  { dims = t.dims; coords; vals }

let permute t perm =
  if Array.length perm <> order t then invalid_arg "Coo.permute";
  {
    dims = Array.map (fun d -> t.dims.(d)) perm;
    coords = Array.map (fun d -> t.coords.(d)) perm;
    vals = t.vals;
  }

let iter f t =
  let ord = order t in
  let c = Array.make ord 0 in
  for k = 0 to nnz t - 1 do
    for d = 0 to ord - 1 do
      c.(d) <- t.coords.(d).(k)
    done;
    f c t.vals.(k)
  done

let to_alist t =
  let acc = ref [] in
  iter (fun c v -> acc := (Array.to_list c, v) :: !acc) t;
  List.rev !acc

let equal a b =
  a.dims = b.dims
  && to_alist (sort_dedup a) = to_alist (sort_dedup b)
