open Spdistal_runtime

(* The CSR matrix of paper Fig. 7:
   rows:  0 -> cols {0, 2}; 1 -> {}; 2 -> {1} (a 3x3 example). *)
let pos = Region.of_array "pos" [| (0, 1); (2, 1); (2, 2) |]
let crd = Region.of_array "crd" [| 0; 2; 1 |]

let test_image_ranges () =
  (* Partition rows {0} | {1,2}; image through pos colors crd positions. *)
  let rows = Partition.by_bounds (Iset.range 3) [| (0, 0); (1, 2) |] in
  let p = Dependent.image_ranges pos rows (Iset.range 3) in
  Alcotest.(check (list int)) "row 0 owns crd 0,1" [ 0; 1 ]
    (Iset.elements (Partition.subset p 0));
  Alcotest.(check (list int)) "rows 1-2 own crd 2" [ 2 ]
    (Iset.elements (Partition.subset p 1));
  Alcotest.(check bool) "disjoint" true p.Partition.disjoint

let test_preimage_ranges () =
  (* Partition crd positions {0} | {1,2}; row 0 spans both colors. *)
  let crdp = Partition.by_bounds (Iset.range 3) [| (0, 0); (1, 2) |] in
  let p = Dependent.preimage_ranges pos crdp in
  Alcotest.(check (list int)) "color 0 = row 0" [ 0 ]
    (Iset.elements (Partition.subset p 0));
  Alcotest.(check (list int)) "color 1 = rows 0 and 2" [ 0; 2 ]
    (Iset.elements (Partition.subset p 1));
  Alcotest.(check bool) "aliased (paper Fig. 6b)" false p.Partition.disjoint

let test_image_values () =
  let crdp = Partition.by_bounds (Iset.range 3) [| (0, 1); (2, 2) |] in
  let p = Dependent.image_values crd crdp (Iset.range 3) in
  Alcotest.(check (list int)) "values of positions 0,1" [ 0; 2 ]
    (Iset.elements (Partition.subset p 0));
  Alcotest.(check (list int)) "value of position 2" [ 1 ]
    (Iset.elements (Partition.subset p 1))

let test_preimage_values () =
  let vals = Partition.by_bounds (Iset.range 3) [| (0, 0); (1, 2) |] in
  let p = Dependent.preimage_values crd vals in
  Alcotest.(check (list int)) "positions holding value 0" [ 0 ]
    (Iset.elements (Partition.subset p 0));
  Alcotest.(check (list int)) "positions holding values 1-2" [ 1; 2 ]
    (Iset.elements (Partition.subset p 1))

(* Property: image/preimage soundness on random CSR structures. *)
let arb_csr_parts =
  let open QCheck in
  let gen =
    Gen.(
      let* coo = QCheck.gen Helpers.arb_coo_matrix in
      let* pieces = int_range 1 4 in
      Gen.return (Spdistal_formats.Tensor.csr ~name:"B" coo, pieces))
  in
  make ~print:(fun (t, p) ->
      Printf.sprintf "%d nnz csr, %d pieces" (Spdistal_formats.Tensor.nnz t) p)
    gen

let prop_image_covers_children =
  Helpers.qtest ~count:100 "image of complete row partition covers all crd"
    arb_csr_parts
    (fun (t, pieces) ->
      let open Spdistal_formats in
      if Tensor.nnz t = 0 then true
      else begin
        let pos = Tensor.pos_of t 1 and crd = Tensor.crd_of t 1 in
        let rows = Partition.equal_blocks pos.Region.ispace pieces in
        let p = Dependent.image_ranges pos rows crd.Region.ispace in
        Partition.is_complete p && p.Partition.disjoint
      end)

let prop_preimage_sound =
  Helpers.qtest ~count:100
    "preimage contains exactly the rows whose ranges intersect" arb_csr_parts
    (fun (t, pieces) ->
      let open Spdistal_formats in
      if Tensor.nnz t = 0 then true
      else begin
        let pos = Tensor.pos_of t 1 and crd = Tensor.crd_of t 1 in
        let crdp = Partition.equal_cardinality crd.Region.ispace pieces in
        let p = Dependent.preimage_ranges pos crdp in
        let ok = ref true in
        for c = 0 to pieces - 1 do
          Region.iter
            (fun r (lo, hi) ->
              let expected =
                lo <= hi
                && Iset.intersects_interval (Partition.subset crdp c) lo hi
              in
              if expected <> Iset.mem r (Partition.subset p c) then ok := false)
            pos
        done;
        !ok
      end)

let prop_galois =
  Helpers.qtest ~count:100
    "image of preimage covers the original subsets (Galois-style)"
    arb_csr_parts
    (fun (t, pieces) ->
      let open Spdistal_formats in
      if Tensor.nnz t = 0 then true
      else begin
        let pos = Tensor.pos_of t 1 and crd = Tensor.crd_of t 1 in
        let crdp = Partition.equal_cardinality crd.Region.ispace pieces in
        let rowp = Dependent.preimage_ranges pos crdp in
        let back = Dependent.image_ranges pos rowp crd.Region.ispace in
        Array.for_all2
          (fun orig img -> Iset.subset orig img)
          crdp.Partition.subsets back.Partition.subsets
      end)

(* A source set that leaves its region is a structured error naming the
   operator, not an escaped assertion. *)
let test_source_leaves_region () =
  let expect_error op f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Error.Error" op
    | exception Error.Error e ->
        let w = e.Error.what and n = String.length op in
        let rec mentions k =
          k + n <= String.length w && (String.sub w k n = op || mentions (k + 1))
        in
        Alcotest.(check bool) (op ^ " phase") true (e.Error.phase = Error.Partition_eval);
        Alcotest.(check bool) (op ^ " named in: " ^ w) true (mentions 0)
  in
  let escaping =
    Partition.make (Iset.range 5) [| Iset.interval 0 1; Iset.interval 2 4 |]
  in
  let t3 = Iset.range 3 in
  expect_error "image_ranges" (fun () -> Dependent.image_ranges pos escaping t3);
  expect_error "image_values" (fun () -> Dependent.image_values crd escaping t3);
  (* A sub-region's index space excludes indices its backing store has. *)
  let sub = Region.subregion crd (Iset.interval 1 2) in
  let p = Partition.by_bounds (Iset.range 3) [| (0, 2) |] in
  expect_error "image_values" (fun () -> Dependent.image_values sub p t3);
  expect_error "by_value_ranges" (fun () ->
      Partition.by_value_ranges ~values:sub t3 [| (0, 2) |])

(* Differential properties: each operator equals the list-based reference
   in [Dependent_ref] on random CSR and COO structures, with aliased and
   fragmented partitions, sub-regions that do not start at 0, and targets
   that are neither contiguous nor cover every coordinate. *)
type case = {
  fmt : string;
  pos : (int * int) Region.t;  (** ranges into [crd]'s positions *)
  crd : int Region.t;  (** coordinate values *)
  src_pos : Partition.t;  (** of [pos]'s index space *)
  src_crd : Partition.t;  (** of [crd]'s index space *)
  dst_crd : Partition.t;  (** of the positions [pos] points to *)
  dst_val : Partition.t;  (** of the coordinate values *)
  tgt_crd : Iset.t;  (** image target for ranges *)
  tgt_val : Iset.t;  (** image target for values *)
  ranges : (int * int) array;  (** value ranges, some inverted *)
}

let print_case c =
  let pairs a =
    Array.to_list a
    |> List.map (fun (l, h) -> Printf.sprintf "%d,%d" l h)
    |> String.concat ";"
  in
  let pp_part fmt p =
    Format.fprintf fmt "[%s]"
      (String.concat "; "
         (Array.to_list (Array.map (Format.asprintf "%a" Iset.pp) p.Partition.subsets)))
  in
  Format.asprintf
    "%s pos=%a {%s} crd=%a {%s}@ src_pos=%a src_crd=%a dst_crd=%a dst_val=%a@ \
     tgt_crd=%a tgt_val=%a ranges=[%s]"
    c.fmt Iset.pp c.pos.Region.ispace (pairs c.pos.Region.data) Iset.pp
    c.crd.Region.ispace
    (String.concat ";" (List.map string_of_int (Array.to_list c.crd.Region.data)))
    pp_part c.src_pos pp_part c.src_crd pp_part c.dst_crd pp_part c.dst_val Iset.pp
    c.tgt_crd Iset.pp c.tgt_val (pairs c.ranges)

let arb_case =
  let open QCheck in
  (* Up to four random intervals, clipped to [lo..hi]: often fragmented,
     sometimes empty. *)
  let gen_iset lo hi =
    Gen.(
      let* n = int_range 0 4 in
      let* ivs =
        list_repeat n
          (let* a = int_range (lo - 2) (max lo hi + 2) in
           let* len = int_range 0 5 in
           return (a, a + len))
      in
      return (Iset.inter (Iset.interval lo hi) (Iset.of_intervals ivs)))
  in
  let gen_part ~axis parent =
    let lo, hi =
      if Iset.is_empty parent then (0, -1) else (Iset.min_elt parent, Iset.max_elt parent)
    in
    Gen.(
      let* k = int_range 1 4 in
      let* subsets =
        (* Either equal blocks (disjoint, complete) or random sets (often
           aliased and fragmented). *)
        frequency
          [
            (1, return (Partition.equal_blocks parent k).Partition.subsets);
            ( 3,
              map Array.of_list
                (list_repeat k (map (Iset.inter parent) (gen_iset lo hi))) );
          ]
      in
      return (Partition.make ~axis parent subsets))
  in
  (* Half the time, a sub-region over a random subset of the index space. *)
  let gen_sub r =
    let n = Region.extent r in
    Gen.(
      let* restrict = bool in
      if not restrict then return r
      else map (Region.subregion r) (gen_iset 0 (n - 1)))
  in
  let gen =
    Gen.(
      let* coo = QCheck.gen Helpers.arb_coo_matrix in
      let* csr = bool in
      let* coo_rows = bool in
      let* axis = oneofl [ Partition.Flat; Partition.Grid_dim 0; Partition.Grid_dim 1 ] in
      let open Spdistal_formats in
      let t, fmt, pos, crd =
        if csr then
          let t = Tensor.csr ~name:"B" coo in
          (t, "csr", Tensor.pos_of t 1, Tensor.crd_of t 1)
        else
          (* COO: a non-unique row level (one range over every position)
             over a singleton column level; values come from either crd,
             and the row crd repeats coordinates. *)
          let t = Tensor.coo_matrix ~name:"B" coo in
          (t, "coo", Tensor.pos_of t 0, Tensor.crd_of t (if coo_rows then 0 else 1))
      in
      let nnz = Tensor.nnz t and univ = max coo.Coo.dims.(0) coo.Coo.dims.(1) in
      let* pos = gen_sub pos in
      let* crd = gen_sub crd in
      let* src_pos = gen_part ~axis pos.Region.ispace in
      let* src_crd = gen_part ~axis crd.Region.ispace in
      let* dst_crd = gen_part ~axis (Iset.range (nnz + 3)) in
      let* dst_val = gen_part ~axis (Iset.range (univ + 3)) in
      let* tgt_crd = gen_iset 0 (nnz + 2) in
      let* tgt_val = gen_iset 0 (univ + 2) in
      let* ranges =
        map Array.of_list
          (list_repeat 3
             (let* lo = int_range (-1) (univ + 1) in
              let* len = int_range (-2) 6 in
              return (lo, lo + len)))
      in
      return
        { fmt; pos; crd; src_pos; src_crd; dst_crd; dst_val; tgt_crd; tgt_val; ranges })
  in
  make ~print:print_case gen

let same_partition (a : Partition.t) (b : Partition.t) =
  Iset.equal a.Partition.parent b.Partition.parent
  && Array.length a.Partition.subsets = Array.length b.Partition.subsets
  && Array.for_all2 Iset.equal a.Partition.subsets b.Partition.subsets
  && a.Partition.disjoint = b.Partition.disjoint
  && a.Partition.axis = b.Partition.axis

let differential name f =
  Helpers.qtest ~count:300 (name ^ " equals the list-based reference") arb_case f

let prop_image_ranges_ref =
  differential "image_ranges" (fun c ->
      same_partition
        (Dependent.image_ranges c.pos c.src_pos c.tgt_crd)
        (Dependent_ref.image_ranges c.pos c.src_pos c.tgt_crd))

let prop_preimage_ranges_ref =
  differential "preimage_ranges" (fun c ->
      same_partition
        (Dependent.preimage_ranges c.pos c.dst_crd)
        (Dependent_ref.preimage_ranges c.pos c.dst_crd))

let prop_image_values_ref =
  differential "image_values" (fun c ->
      same_partition
        (Dependent.image_values c.crd c.src_crd c.tgt_val)
        (Dependent_ref.image_values c.crd c.src_crd c.tgt_val))

let prop_preimage_values_ref =
  differential "preimage_values" (fun c ->
      same_partition
        (Dependent.preimage_values c.crd c.dst_val)
        (Dependent_ref.preimage_values c.crd c.dst_val))

let prop_by_value_ranges_ref =
  differential "by_value_ranges" (fun c ->
      let is = Partition.union_of_colors c.src_crd in
      let axis = c.src_crd.Partition.axis in
      same_partition
        (Partition.by_value_ranges ~axis ~values:c.crd is c.ranges)
        (Dependent_ref.by_value_ranges ~axis ~values:c.crd is c.ranges))

let suite =
  [
    Alcotest.test_case "image of ranges" `Quick test_image_ranges;
    Alcotest.test_case "preimage of ranges" `Quick test_preimage_ranges;
    Alcotest.test_case "image of values" `Quick test_image_values;
    Alcotest.test_case "preimage of values" `Quick test_preimage_values;
    prop_image_covers_children;
    prop_preimage_sound;
    prop_galois;
    Alcotest.test_case "source set leaving its region" `Quick
      test_source_leaves_region;
    prop_image_ranges_ref;
    prop_preimage_ranges_ref;
    prop_image_values_ref;
    prop_preimage_values_ref;
    prop_by_value_ranges_ref;
  ]
