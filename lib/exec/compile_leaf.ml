(* Compiled leaf kernels: monomorphized per-(format x expression) closures.

   The interpreter in {!Leaf} walks the memoized coordinate expansion of the
   driver and re-dispatches on the kernel shape per element.  This pass runs
   once per lowered program (at [Spdistal.compile] / [Interp.prepare] time)
   and specializes each leaf into a closed closure: level iterators from
   {!Level_funcs} are pre-resolved per level kind, the kernel shape is
   matched once, and the hot loop touches only flat arrays and Bigarray
   value buffers — no IR dispatch and no per-element allocation.  The
   classification ({!Leaf.plan_mul}) and work model ({!Leaf.mul_work}) are
   shared with the interpreter, which stays around as the differential
   oracle (`spdistal fuzz` cross-checks the two for bit-identical outputs
   and Cost).

   Reentrancy: one compiled leaf is executed concurrently by the domains
   simulating the pieces of a distributed launch, so all mutable walk state
   (coordinate/position scratch, counters) is allocated per [execute] call;
   the closure itself only captures immutable structure.  Output storage is
   re-resolved per call because warm-start iterations swap the output
   slot's backing data between launches. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir
module A1 = Bigarray.Array1

(* ------------------------------------------------------------------ *)
(* Backend selector                                                     *)
(* ------------------------------------------------------------------ *)

type backend = Interp | Compiled

let backend_env_var = "SPDISTAL_LEAF_BACKEND"

let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "interp" | "interpreter" -> Ok Interp
  | "compiled" | "compile" -> Ok Compiled
  | other ->
      Error
        (Printf.sprintf "unknown leaf backend %S (expected interp or compiled)"
           other)

let backend_name = function Interp -> "interp" | Compiled -> "compiled"

let backend_override : backend option ref = ref None
let set_backend b = backend_override := Some b

let default_backend () =
  match !backend_override with
  | Some b -> b
  | None -> (
      match Sys.getenv_opt backend_env_var with
      | None -> Compiled
      | Some s -> ( match backend_of_string s with Ok b -> b | Error _ -> Compiled))

(* ------------------------------------------------------------------ *)
(* Compiled form                                                        *)
(* ------------------------------------------------------------------ *)

(* Fused fast paths for CSR-driver kernels (the paper's fig. 10 hot loops:
   SpMV / SpMM / SDDMM).  Everything else runs the generic specialized
   walker, which is still free of per-element IR dispatch. *)
type fast =
  | Generic
  | Fast_spmv of { x : float array }
  | Fast_spmm of { c : float array; ccols : int }
  | Fast_sddmm of { c : float array; ccols : int; d : float array; dcols : int }

type mul = {
  m_bindings : Operand.bindings;
  m_plan : Leaf.plan;
  m_ord : int;
  m_mode_order : int array;
  m_walkers : Level_funcs.level_iter array;
  m_dvals : Region.F.buf;
  m_csr_hi : int array;
      (* CSR fast paths only: flat row-end positions (snd of the level-1 pos
         ranges), pre-extracted so the hot loop never chases a tuple *)
  m_csr_crd : int array;
  m_fast : fast;
}

(* Merge operands resolved once at compile time into per-operand arrays,
   so the row loop indexes by operand number instead of walking a list. *)
type merge = {
  g_pos : (int * int) array array;
  g_crd : int array array;
  g_vals : Region.F.buf array;
  g_cols : int;
  g_use_workspace : bool;
}

type t = C_mul of mul | C_merge of merge

(* ------------------------------------------------------------------ *)
(* Compilation                                                          *)
(* ------------------------------------------------------------------ *)

let is_csr (t : Tensor.t) =
  Tensor.order t = 2
  && t.Tensor.mode_order = [| 0; 1 |]
  &&
  match t.Tensor.levels with
  | [| Level.Dense _; Level.Compressed _ |] -> true
  | _ -> false

let detect_fast ~(plan : Leaf.plan) ~(driver : Tensor.t) =
  if not (is_csr driver) then Generic
  else
    match
      ( plan.Leaf.pl_inner_out,
        plan.Leaf.pl_inner_red,
        plan.Leaf.pl_factors,
        plan.Leaf.pl_sink )
    with
    | false, false, [| Leaf.F_vec (x, Leaf.Driver_dim 1) |], Leaf.Sp_vec (Leaf.Driver_dim 0)
      ->
        Fast_spmv { x }
    | ( true,
        false,
        [| Leaf.F_mat (c, ccols, Leaf.Driver_dim 1, Leaf.Inner_out) |],
        Leaf.Sp_mat (Leaf.Driver_dim 0, Leaf.Inner_out) ) ->
        Fast_spmm { c; ccols }
    | ( false,
        true,
        [|
          Leaf.F_mat (c, ccols, Leaf.Driver_dim 0, Leaf.Inner_red);
          Leaf.F_mat (d, dcols, Leaf.Inner_red, Leaf.Driver_dim 1);
        |],
        Leaf.Sp_sparse None ) ->
        Fast_sddmm { c; ccols; d; dcols }
    | _ -> Generic

let compile_merge ~ops ~cols ~use_workspace =
  let ops = Array.of_list ops in
  C_merge
    {
      g_pos = Array.map (fun ((pos, _, _) : Leaf.merge_op) -> pos) ops;
      g_crd = Array.map (fun ((_, crd, _) : Leaf.merge_op) -> crd) ops;
      g_vals = Array.map (fun ((_, _, vals) : Leaf.merge_op) -> vals) ops;
      g_cols = cols;
      g_use_workspace = use_workspace;
    }

let compile ~bindings (leaf : Loop_ir.leaf) =
  match leaf.Loop_ir.driver with
  | Loop_ir.Merge_driver tensors ->
      let ops, cols = Leaf.merge_ops ~bindings ~tensors in
      compile_merge ~ops ~cols ~use_workspace:leaf.Loop_ir.use_workspace
  | Loop_ir.Sparse_driver driver_name ->
      let plan = Leaf.plan_mul ~bindings ~leaf ~driver_name in
      let driver = Operand.find_sparse bindings driver_name in
      let fast = detect_fast ~plan ~driver in
      let csr_hi, csr_crd =
        match (fast, driver.Tensor.levels) with
        | (Fast_spmv _ | Fast_spmm _ | Fast_sddmm _), [| _; Level.Compressed { pos; crd } |]
          ->
            (Array.map snd pos.Region.data, crd.Region.data)
        | _ -> ([||], [||])
      in
      C_mul
        {
          m_bindings = bindings;
          m_plan = plan;
          m_ord = Tensor.order driver;
          m_mode_order = driver.Tensor.mode_order;
          m_walkers = Array.map Level_funcs.iter_of_level driver.Tensor.levels;
          m_dvals = driver.Tensor.vals.Region.F.data;
          m_csr_hi = csr_hi;
          m_csr_crd = csr_crd;
          m_fast = fast;
        }

(* ------------------------------------------------------------------ *)
(* Generic specialized walker                                           *)
(* ------------------------------------------------------------------ *)

let src_reader coords (s : Leaf.idx_src) : int -> int -> int =
  match s with
  | Leaf.Driver_dim d -> fun _ _ -> coords.(d)
  | Leaf.Inner_out -> fun j _ -> j
  | Leaf.Inner_red -> fun _ k -> k

let factor_reader coords (f : Leaf.factor) : int -> int -> float =
  match f with
  | Leaf.F_vec (d, Leaf.Driver_dim i) -> fun _ _ -> d.(coords.(i))
  | Leaf.F_vec (d, Leaf.Inner_out) -> fun j _ -> d.(j)
  | Leaf.F_vec (d, Leaf.Inner_red) -> fun _ k -> d.(k)
  | Leaf.F_mat (d, cols, sr, sc) -> (
      match (sr, sc) with
      | Leaf.Driver_dim a, Leaf.Driver_dim b ->
          fun _ _ -> d.((coords.(a) * cols) + coords.(b))
      | Leaf.Driver_dim a, Leaf.Inner_out -> fun j _ -> d.((coords.(a) * cols) + j)
      | Leaf.Driver_dim a, Leaf.Inner_red -> fun _ k -> d.((coords.(a) * cols) + k)
      | Leaf.Inner_out, Leaf.Driver_dim b -> fun j _ -> d.((j * cols) + coords.(b))
      | Leaf.Inner_red, Leaf.Driver_dim b -> fun _ k -> d.((k * cols) + coords.(b))
      | _ ->
          let ra = src_reader coords sr and rb = src_reader coords sc in
          fun j k -> d.((ra j k * cols) + rb j k))

(* The factor product, folded left-to-right starting from the literal scale
   — the same association order as the interpreter's accumulator, so
   rounding is bit-identical. *)
let eval_of coords (plan : Leaf.plan) : int -> int -> float =
  Array.fold_left
    (fun acc f ->
      let r = factor_reader coords f in
      fun j k -> acc j k *. r j k)
    (fun _ _ -> plan.Leaf.pl_scale)
    plan.Leaf.pl_factors

(* [add p j k y]: reduce [y] into the output.  Resolved per call. *)
let sink_adder ~bindings ~coords ~lvlpos (plan : Leaf.plan) :
    int -> int -> int -> float -> unit =
  match ((Operand.find bindings plan.Leaf.pl_out_name).Operand.data, plan.Leaf.pl_sink) with
  | Operand.Vec v, Leaf.Sp_vec s ->
      let d = v.Dense.data in
      let rs = src_reader coords s in
      fun _p j k y ->
        let i = rs j k in
        d.(i) <- d.(i) +. y
  | Operand.Mat m, Leaf.Sp_mat (sr, sc) ->
      let d = m.Dense.data and cols = m.Dense.cols in
      let rr = src_reader coords sr and rc = src_reader coords sc in
      fun _p j k y ->
        let i = (rr j k * cols) + rc j k in
        d.(i) <- d.(i) +. y
  | Operand.Sparse ot, Leaf.Sp_sparse None ->
      let d = ot.Tensor.vals.Region.F.data in
      fun p _j _k y -> A1.set d p (A1.get d p +. y)
  | Operand.Sparse ot, Leaf.Sp_sparse (Some lvl) ->
      let d = ot.Tensor.vals.Region.F.data in
      fun _p _j _k y ->
        let q = lvlpos.(lvl) in
        A1.set d q (A1.get d q +. y)
  | _ ->
      Error.fail ~kernel:plan.Leaf.pl_out_name Error.Leaf
        "compiled leaf: output slot changed shape since compilation"

exception Past_end

let run_generic (m : mul) ~shard ~col_range =
  let plan = m.m_plan in
  let ord = m.m_ord in
  let coords = Array.make (max ord 1) 0 in
  let lvlpos = Array.make (max ord 1) 0 in
  let path = Array.make (max ord 1) 0 in
  let add = sink_adder ~bindings:m.m_bindings ~coords ~lvlpos plan in
  let eval = eval_of coords plan in
  let jlo, jhi = Leaf.j_bounds plan ~col_range in
  let klo, khi = Leaf.k_bounds plan in
  let dvals = m.m_dvals in
  let nnz = ref 0 and rows_touched = ref 0 and last_row = ref (-1) in
  let tally () =
    incr nnz;
    if coords.(0) <> !last_row then begin
      incr rows_touched;
      last_row := coords.(0)
    end
  in
  let body : int -> unit =
    match (plan.Leaf.pl_inner_out, plan.Leaf.pl_inner_red) with
    | false, false ->
        fun p ->
          tally ();
          add p 0 0 (A1.get dvals p *. eval 0 0)
    | true, false -> (
        match plan.Leaf.pl_sink with
        | Leaf.Sp_sparse _ ->
            fun _p ->
              tally ();
              if jlo <= jhi then
                Error.fail ~kernel:plan.Leaf.pl_driver_name Error.Leaf
                  "inner-out with sparse output"
        | _ ->
            fun p ->
              tally ();
              let dv = A1.get dvals p in
              for j = jlo to jhi do
                add p j 0 (dv *. eval j 0)
              done)
    | false, true ->
        fun p ->
          tally ();
          let acc = ref 0. in
          for k = klo to khi do
            acc := !acc +. eval 0 k
          done;
          add p 0 0 (A1.get dvals p *. !acc)
    | true, true ->
        fun _p ->
          tally ();
          Error.fail ~kernel:plan.Leaf.pl_driver_name Error.Leaf
            "simultaneous inner output and reduction vars"
  in
  let walkers = m.m_walkers and mo = m.m_mode_order in
  (* Seek the spine of the interval's first leaf position, then walk the
     nest in storage order until the leaf passes the interval's end. *)
  let walk_interval plo phi =
    path.(ord - 1) <- plo;
    for kk = ord - 2 downto 0 do
      path.(kk) <- walkers.(kk + 1).Level_funcs.li_locate path.(kk + 1)
    done;
    let rec go kk parent start =
      walkers.(kk).Level_funcs.li_iter ~parent ~from:start (fun c p ->
          coords.(mo.(kk)) <- c;
          lvlpos.(kk) <- p;
          if kk = ord - 1 then begin
            if p > phi then raise_notrace Past_end;
            body p
          end
          else go (kk + 1) p (if p = path.(kk) then path.(kk + 1) else -1))
    in
    try go 0 0 path.(0) with Past_end -> ()
  in
  Iset.iter_intervals walk_interval shard;
  {
    Leaf.work =
      Leaf.mul_work plan ~nnz:!nnz ~rows_touched:!rows_touched
        ~js:(jhi - jlo + 1) ~ks:(khi - klo + 1);
    partial = None;
  }

(* ------------------------------------------------------------------ *)
(* CSR fast paths                                                       *)
(* ------------------------------------------------------------------ *)

(* Row cursor over the flat row-end positions: positions are visited in
   ascending order, so the cursor only moves forward within an interval,
   skipping empty rows (whose hi precedes their lo).  Each interval is cut
   into per-row segments; a segment accumulates into a register seeded from
   the output cell and stores once — the identical left-to-right addition
   sequence as the interpreter's per-element read-modify-write, so rounding
   is bit-identical. *)

let run_spmv (m : mul) ~shard ~x =
  let plan = m.m_plan in
  let hi = m.m_csr_hi and crdd = m.m_csr_crd and dvals = m.m_dvals in
  let scale = plan.Leaf.pl_scale in
  let y =
    match (Operand.find m.m_bindings plan.Leaf.pl_out_name).Operand.data with
    | Operand.Vec v -> v.Dense.data
    | _ ->
        Error.fail ~kernel:plan.Leaf.pl_out_name Error.Leaf
          "compiled leaf: output slot changed shape since compilation"
  in
  let nnz = ref 0 and rows_touched = ref 0 and last_row = ref (-1) in
  Iset.iter_intervals
    (fun plo phi ->
      nnz := !nnz + (phi - plo + 1);
      let r = ref (m.m_walkers.(1).Level_funcs.li_locate plo) in
      let p = ref plo in
      while !p <= phi do
        let row = !r in
        let rhi = Array.unsafe_get hi row in
        if !p > rhi then incr r
        else begin
          let seg_hi = if rhi < phi then rhi else phi in
          if row <> !last_row then begin
            incr rows_touched;
            last_row := row
          end;
          let acc = ref (Array.unsafe_get y row) in
          for q = !p to seg_hi do
            acc :=
              !acc
              +. A1.unsafe_get dvals q
                 *. (scale *. Array.unsafe_get x (Array.unsafe_get crdd q))
          done;
          Array.unsafe_set y row !acc;
          p := seg_hi + 1;
          incr r
        end
      done)
    shard;
  {
    Leaf.work =
      Leaf.mul_work plan ~nnz:!nnz ~rows_touched:!rows_touched ~js:0 ~ks:0;
    partial = None;
  }

let run_spmm (m : mul) ~shard ~col_range ~c ~ccols =
  let plan = m.m_plan in
  let hi = m.m_csr_hi and crdd = m.m_csr_crd and dvals = m.m_dvals in
  let scale = plan.Leaf.pl_scale in
  let jlo, jhi = Leaf.j_bounds plan ~col_range in
  let a, acols =
    match (Operand.find m.m_bindings plan.Leaf.pl_out_name).Operand.data with
    | Operand.Mat mt -> (mt.Dense.data, mt.Dense.cols)
    | _ ->
        Error.fail ~kernel:plan.Leaf.pl_out_name Error.Leaf
          "compiled leaf: output slot changed shape since compilation"
  in
  let nnz = ref 0 and rows_touched = ref 0 and last_row = ref (-1) in
  Iset.iter_intervals
    (fun plo phi ->
      nnz := !nnz + (phi - plo + 1);
      let r = ref (m.m_walkers.(1).Level_funcs.li_locate plo) in
      let p = ref plo in
      while !p <= phi do
        let row = !r in
        let rhi = Array.unsafe_get hi row in
        if !p > rhi then incr r
        else begin
          let seg_hi = if rhi < phi then rhi else phi in
          if row <> !last_row then begin
            incr rows_touched;
            last_row := row
          end;
          let abase = row * acols in
          for q = !p to seg_hi do
            let col = Array.unsafe_get crdd q in
            let dv = A1.unsafe_get dvals q in
            let cbase = col * ccols in
            for j = jlo to jhi do
              let y0 = dv *. (scale *. Array.unsafe_get c (cbase + j)) in
              Array.unsafe_set a (abase + j)
                (Array.unsafe_get a (abase + j) +. y0)
            done
          done;
          p := seg_hi + 1;
          incr r
        end
      done)
    shard;
  {
    Leaf.work =
      Leaf.mul_work plan ~nnz:!nnz ~rows_touched:!rows_touched
        ~js:(jhi - jlo + 1) ~ks:0;
    partial = None;
  }

let run_sddmm (m : mul) ~shard ~c ~ccols ~d ~dcols =
  let plan = m.m_plan in
  let hi = m.m_csr_hi and crdd = m.m_csr_crd and dvals = m.m_dvals in
  let scale = plan.Leaf.pl_scale in
  let klo, khi = Leaf.k_bounds plan in
  let out =
    match (Operand.find m.m_bindings plan.Leaf.pl_out_name).Operand.data with
    | Operand.Sparse ot -> ot.Tensor.vals.Region.F.data
    | _ ->
        Error.fail ~kernel:plan.Leaf.pl_out_name Error.Leaf
          "compiled leaf: output slot changed shape since compilation"
  in
  let nnz = ref 0 and rows_touched = ref 0 and last_row = ref (-1) in
  Iset.iter_intervals
    (fun plo phi ->
      nnz := !nnz + (phi - plo + 1);
      let r = ref (m.m_walkers.(1).Level_funcs.li_locate plo) in
      let p = ref plo in
      while !p <= phi do
        let row = !r in
        let rhi = Array.unsafe_get hi row in
        if !p > rhi then incr r
        else begin
          let seg_hi = if rhi < phi then rhi else phi in
          if row <> !last_row then begin
            incr rows_touched;
            last_row := row
          end;
          let cbase = row * ccols in
          for q = !p to seg_hi do
            let col = Array.unsafe_get crdd q in
            let acc = ref 0. in
            for k = klo to khi do
              acc :=
                !acc
                +. (scale *. Array.unsafe_get c (cbase + k))
                   *. Array.unsafe_get d ((k * dcols) + col)
            done;
            let y0 = A1.unsafe_get dvals q *. !acc in
            A1.unsafe_set out q (A1.unsafe_get out q +. y0)
          done;
          p := seg_hi + 1;
          incr r
        end
      done)
    shard;
  {
    Leaf.work =
      Leaf.mul_work plan ~nnz:!nnz ~rows_touched:!rows_touched ~js:0
        ~ks:(khi - klo + 1);
    partial = None;
  }

(* ------------------------------------------------------------------ *)
(* Additive merge (SpAdd3): two-pass assembly                           *)
(* ------------------------------------------------------------------ *)

(* Two passes over the piece's rows (§V-B assembly): the count pass runs
   the merge without values to size every row exactly, the fill pass runs
   it again writing crd/vals in place into arrays of that size.  The merge
   walks per-operand cursors kept in flat [cur]/[hi] arrays; the workspace
   variant marks touched columns in a [bool] array.  Emission order and
   float summation order (operand order, then position order, from 0.) are
   the interpreter's ({!Leaf.merge_core}), so outputs are bit-identical.
   Sums live in local float refs and go straight into a float array: no
   float crosses a closure, so nothing is boxed. *)

(* Load row [r]'s operand ranges into the cursors; returns the row's
   stored-element count. *)
let load_row (g : merge) ~cur ~hi r =
  let n = ref 0 in
  for o = 0 to Array.length g.g_pos - 1 do
    let lo, h = g.g_pos.(o).(r) in
    cur.(o) <- lo;
    hi.(o) <- h;
    if h >= lo then n := !n + (h - lo + 1)
  done;
  !n

(* k-way merge of the loaded row.  Returns the number of output entries;
   when [fill], also writes them at [base..] of [crd_out]/[vals_out]. *)
let merge_row (g : merge) ~cur ~hi ~fill ~crd_out ~vals_out base =
  let k = Array.length g.g_pos in
  let crds = g.g_crd and valss = g.g_vals in
  let m = ref max_int in
  for o = 0 to k - 1 do
    let c = Array.unsafe_get cur o in
    if c <= Array.unsafe_get hi o then begin
      let v = (Array.unsafe_get crds o).(c) in
      if v < !m then m := v
    end
  done;
  let w = ref base in
  while !m < max_int do
    let col = !m in
    let sum = ref 0. in
    m := max_int;
    for o = 0 to k - 1 do
      let crd = Array.unsafe_get crds o in
      let h = Array.unsafe_get hi o in
      let c = ref (Array.unsafe_get cur o) in
      if fill then begin
        let vals = Array.unsafe_get valss o in
        while !c <= h && crd.(!c) = col do
          sum := !sum +. A1.unsafe_get vals !c;
          incr c
        done
      end
      else
        while !c <= h && crd.(!c) = col do
          incr c
        done;
      Array.unsafe_set cur o !c;
      if !c <= h then begin
        let v = crd.(!c) in
        if v < !m then m := v
      end
    done;
    if fill then begin
      crd_out.(!w) <- col;
      vals_out.(!w) <- !sum
    end;
    incr w
  done;
  !w - base

(* Workspace strategy: scatter the row's operands into a dense accumulator
   [ws], marking touched columns in [touched].  The count pass marks and
   unmarks; the fill pass stacks the touched columns into the output crd
   slice, sorts it, then gathers and clears the accumulator. *)
let workspace_row (g : merge) ~cur ~hi ~touched ~ws ~fill ~crd_out ~vals_out
    base =
  let k = Array.length g.g_pos in
  let n = ref 0 in
  for o = 0 to k - 1 do
    let crd = g.g_crd.(o) and vals = g.g_vals.(o) in
    for p = cur.(o) to hi.(o) do
      let j = crd.(p) in
      if not touched.(j) then begin
        touched.(j) <- true;
        if fill then crd_out.(base + !n) <- j;
        incr n
      end;
      if fill then ws.(j) <- ws.(j) +. A1.unsafe_get vals p
    done
  done;
  if fill then begin
    let cols = Array.sub crd_out base !n in
    Array.sort Int.compare cols;
    Array.blit cols 0 crd_out base !n;
    for q = base to base + !n - 1 do
      let j = crd_out.(q) in
      vals_out.(q) <- ws.(j);
      ws.(j) <- 0.;
      touched.(j) <- false
    done
  end
  else
    for o = 0 to k - 1 do
      let crd = g.g_crd.(o) in
      for p = cur.(o) to hi.(o) do
        touched.(crd.(p)) <- false
      done
    done;
  !n

let run_merge (g : merge) ~rows =
  let nrows = Iset.cardinal rows in
  let k = Array.length g.g_pos in
  let cur = Array.make k 0 and hi = Array.make k 0 in
  let ws_on = g.g_use_workspace in
  let touched = if ws_on then Array.make g.g_cols false else [||] in
  let ws = if ws_on then Array.make g.g_cols 0. else [||] in
  let row ~fill ~crd_out ~vals_out base =
    if ws_on then workspace_row g ~cur ~hi ~touched ~ws ~fill ~crd_out ~vals_out base
    else merge_row g ~cur ~hi ~fill ~crd_out ~vals_out base
  in
  (* Count pass: exact per-row output sizes and the stored-element total. *)
  let mrows = Array.make nrows 0 and mcounts = Array.make nrows 0 in
  let i = ref 0 and nel = ref 0 and total = ref 0 in
  Iset.iter_intervals
    (fun rlo rhi ->
      for r = rlo to rhi do
        nel := !nel + load_row g ~cur ~hi r;
        let c = row ~fill:false ~crd_out:[||] ~vals_out:[||] 0 in
        mrows.(!i) <- r;
        mcounts.(!i) <- c;
        total := !total + c;
        incr i
      done)
    rows;
  (* Fill pass into arrays of exactly the counted size. *)
  let mcrd = Array.make !total 0 and mvals = Array.create_float !total in
  let base = ref 0 in
  for i = 0 to nrows - 1 do
    ignore (load_row g ~cur ~hi mrows.(i));
    ignore (row ~fill:true ~crd_out:mcrd ~vals_out:mvals !base);
    base := !base + mcounts.(i)
  done;
  (* The interpreter's work record accumulates small exact integers in
     floats (1 flop and 16 B per element read, doubled for the merge's
     compare traffic, 32 B per workspace element, 16 B per output entry),
     so integer counts reproduce it bit for bit. *)
  let read = if ws_on then 32 * !nel else 2 * (16 * !nel) in
  {
    Leaf.work =
      {
        Task.flops = float_of_int !nel;
        bytes_read = float_of_int read;
        bytes_written = float_of_int (16 * !total);
        atomics = false;
      };
    partial = Some { Leaf.mrows; mcounts; mcrd; mvals };
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)
(* ------------------------------------------------------------------ *)

let execute t ~shard_vals ~rows ~col_range () =
  match t with
  | C_merge g -> (
      match rows with
      | Some r -> run_merge g ~rows:r
      | None -> Error.fail Error.Leaf "merge kernel needs a row set")
  | C_mul m -> (
      let shard = shard_vals m.m_plan.Leaf.pl_driver_name in
      match m.m_fast with
      | Fast_spmv { x } -> run_spmv m ~shard ~x
      | Fast_spmm { c; ccols } -> run_spmm m ~shard ~col_range ~c ~ccols
      | Fast_sddmm { c; ccols; d; dcols } -> run_sddmm m ~shard ~c ~ccols ~d ~dcols
      | Generic -> run_generic m ~shard ~col_range)
