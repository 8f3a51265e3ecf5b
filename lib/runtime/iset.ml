(* Canonical form: sorted list of disjoint inclusive intervals with no two
   intervals adjacent (hi + 1 < next lo). *)

type t = (int * int) list

let empty = []
let interval lo hi = if hi < lo then [] else [ (lo, hi) ]
let singleton x = [ (x, x) ]
let range n = interval 0 (n - 1)

(* Merge a sorted-by-lo interval list into canonical form. *)
let normalize_sorted l =
  let rec go acc = function
    | [] -> List.rev acc
    | (lo, hi) :: rest -> (
        match acc with
        | (alo, ahi) :: acc' when lo <= ahi + 1 ->
            go ((alo, max ahi hi) :: acc') rest
        | _ -> go ((lo, hi) :: acc) rest)
  in
  go [] l

let of_intervals l =
  l
  |> List.filter (fun (lo, hi) -> lo <= hi)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> normalize_sorted

let of_sorted_intervals l = normalize_sorted (List.filter (fun (lo, hi) -> lo <= hi) l)
let of_list xs = of_intervals (List.map (fun x -> (x, x)) xs)
let is_empty t = t = []

let rec mem x = function
  | [] -> false
  | (lo, hi) :: rest -> if x < lo then false else x <= hi || mem x rest

let cardinal t = List.fold_left (fun n (lo, hi) -> n + hi - lo + 1) 0 t
let interval_count = List.length
let min_elt = function [] -> raise Not_found | (lo, _) :: _ -> lo

let max_elt = function
  | [] -> raise Not_found
  | l -> snd (List.nth l (List.length l - 1))

let equal (a : t) (b : t) = a = b

let union a b =
  (* Merge two canonical lists.  Tail-recursive: partitions over large
     fragmented index spaces routinely produce interval lists in the
     millions, where a naive [x :: merge a' b] would overflow the stack. *)
  let rec merge acc a b =
    match (a, b) with
    | [], l | l, [] -> List.rev_append acc l
    | ((alo, _) as x) :: a', ((blo, _) as y) :: b' ->
        if alo <= blo then merge (x :: acc) a' b else merge (y :: acc) a b'
  in
  normalize_sorted (merge [] a b)

let inter a b =
  let rec go a b acc =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | (alo, ahi) :: a', (blo, bhi) :: b' ->
        let lo = max alo blo and hi = min ahi bhi in
        let acc = if lo <= hi then (lo, hi) :: acc else acc in
        if ahi < bhi then go a' b acc else go a b' acc
  in
  go a b []

let diff a b =
  (* Subtract canonical [b] from canonical [a]. *)
  let rec go a b acc =
    match (a, b) with
    | [], _ -> List.rev acc
    | a, [] -> List.rev_append acc a
    | (alo, ahi) :: a', (blo, bhi) :: b' ->
        if bhi < alo then go a b' acc
        else if ahi < blo then go a' b ((alo, ahi) :: acc)
        else
          (* Overlap. Keep the part of [a]'s head left of [blo]; continue with
             the part right of [bhi]. *)
          let acc = if alo < blo then (alo, blo - 1) :: acc else acc in
          if bhi < ahi then go ((bhi + 1, ahi) :: a') b acc else go a' b acc
  in
  go a b []

let union_list ts = List.fold_left union empty ts

let subset a b = is_empty (diff a b)
let disjoint a b = is_empty (inter a b)

let rec intersects_interval t lo hi =
  if hi < lo then false (* inverted query intervals are empty *)
  else
    match t with
    | [] -> false
    | (alo, ahi) :: rest ->
        if ahi < lo then intersects_interval rest lo hi
        else alo <= hi (* alo <= hi && ahi >= lo: overlap *)

let to_intervals t = t
let fold_intervals f t init = List.fold_left (fun acc (lo, hi) -> f lo hi acc) init t
let iter_intervals f t = List.iter (fun (lo, hi) -> f lo hi) t

let iter f t =
  List.iter
    (fun (lo, hi) ->
      for x = lo to hi do
        f x
      done)
    t

let fold f t init =
  List.fold_left
    (fun acc (lo, hi) ->
      let r = ref acc in
      for x = lo to hi do
        r := f x !r
      done;
      !r)
    init t

let elements t = List.rev (fold (fun x acc -> x :: acc) t [])

let nth t k =
  if k < 0 then invalid_arg "Iset.nth";
  let rec go k = function
    | [] -> invalid_arg "Iset.nth"
    | (lo, hi) :: rest ->
        let len = hi - lo + 1 in
        if k < len then lo + k else go (k - len) rest
  in
  go k t

let pp fmt t =
  Format.fprintf fmt "{";
  List.iteri
    (fun i (lo, hi) ->
      if i > 0 then Format.fprintf fmt ", ";
      if lo = hi then Format.fprintf fmt "%d" lo
      else Format.fprintf fmt "%d..%d" lo hi)
    t;
  Format.fprintf fmt "}"
