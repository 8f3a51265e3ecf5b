open Spdistal_runtime

type staged = { pos : (int * int) array; total : int }

let stage ~rows ~count =
  let pos = Array.make rows (0, -1) in
  let cursor = ref 0 in
  for r = 0 to rows - 1 do
    let c = count r in
    pos.(r) <- (!cursor, !cursor + c - 1);
    cursor := !cursor + c
  done;
  { pos; total = !cursor }

let fill st ~row_fill ~name ~dims =
  (* crd and vals are filled in place at their final size. *)
  let crd = Array.make (max st.total 1) 0 in
  let vals = Region.F.create (name ^ ".vals") (max st.total 1) 0. in
  let vd = vals.Region.F.data in
  Array.iteri
    (fun r (lo, hi) ->
      let k = ref lo in
      let emit col v =
        if !k > hi then invalid_arg "Assemble.fill: row overflow";
        crd.(!k) <- col;
        Bigarray.Array1.set vd !k v;
        incr k
      in
      row_fill r emit;
      if !k <> hi + 1 then invalid_arg "Assemble.fill: row underflow")
    st.pos;
  {
    Tensor.name;
    dims;
    mode_order = [| 0; 1 |];
    levels =
      [|
        Level.Dense { dim = Array.length st.pos };
        Level.Compressed
          {
            pos = Region.of_array (name ^ ".pos") st.pos;
            crd = Region.of_array (name ^ ".crd") crd;
          };
      |];
    vals;
  }

let copy_pattern ~name ?levels (src : Tensor.t) =
  let keep = match levels with Some k -> k | None -> Array.length src.levels in
  if keep <= 0 || keep > Array.length src.levels then
    invalid_arg "Assemble.copy_pattern";
  let levels = Array.sub src.levels 0 keep in
  let mode_order = Array.sub src.mode_order 0 keep in
  (* The kept modes must form a prefix permutation so logical dims make
     sense on their own. *)
  Array.iter
    (fun m -> if m >= keep then invalid_arg "Assemble.copy_pattern: mode order")
    mode_order;
  let dims = Array.init keep (fun d -> src.dims.(d)) in
  let extent =
    Array.fold_left
      (fun e l -> Level.extent ~parent_extent:e l)
      1 levels
  in
  {
    Tensor.name;
    dims;
    mode_order;
    levels;
    vals = Region.F.create (name ^ ".vals") (max extent 1) 0.;
  }
