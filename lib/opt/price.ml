(* Dry-run pricing of a fully-specified problem: charge exactly what a cold
   execution would charge for dependent partitioning and communication, and
   an estimate (from {!Stats}) of what the leaves would cost — without
   running a single leaf.

   Nothing but leaf time is modeled here.  Pricing builds the candidate
   with [Spdistal.plan], the cold path every run takes (placement,
   lowering, partition materialization, with the same [Part_eval.stats]
   tallied and priced by [Cache.partition_seconds]), so [Cost.partitioning]
   of a priced candidate is bit-equal to the cold run's — the invariant the
   optimizer rests on.  Communication is charged by [Interp]'s own per-piece
   fetch and output-reduction code over the materialized partitions, so
   bytes, messages and launches equal a fault-free run's (a regression test
   pins them and the partitioning bill).  Only leaf time is an estimate (the true value needs the
   executed inner extents); it uses the shared [Leaf.mul_work]/merge byte
   model over statistical shard shapes and [Interp.leaf_time]'s scaling, so
   candidates are ranked on the same scale the clock uses.

   Faults and memory pressure (UVM paging) are deliberately ignored:
   candidates are priced for the fault-free steady state, which is also
   what the tournament compares. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir
open Spdistal_exec
module Spdistal = Core.Spdistal
module Trace = Spdistal_obs.Trace

type priced = {
  pr_total : float;
  pr_cost : Cost.t;
  pr_part_seconds : float;
  pr_part_ops : int;
  pr_launches : int;
}

let total p = p.pr_total

(* Estimated work of one piece of a multiplicative leaf: the shared
   [Leaf.mul_work] model over the piece's exact shard cardinality and a
   statistical rows-touched estimate. *)
let mul_estimate ~bindings ~tstats ~env ~shard_parts ~(leaf : Loop_ir.leaf)
    ~driver_name c =
  let plan = Leaf.plan_mul ~bindings ~leaf ~driver_name in
  let shard =
    match List.assoc_opt driver_name shard_parts with
    | Some pname -> Interp.subset env pname c
    | None ->
        Error.fail ~piece:c Error.Leaf "no shard for driver %s" driver_name
  in
  let nnz_shard = Iset.cardinal shard in
  let col_range = Interp.col_range env leaf c in
  let jlo, jhi = Leaf.j_bounds plan ~col_range in
  let klo, khi = Leaf.k_bounds plan in
  let st = Stats.find tstats driver_name in
  let rows = Stats.rows_estimate st ~nnz_shard in
  Leaf.mul_work plan ~nnz:nnz_shard ~rows_touched:rows ~js:(jhi - jlo + 1)
    ~ks:(khi - klo + 1)

(* Estimated work of one piece of an additive merge: exact per-operand entry
   counts over the piece's row block (from the pos arrays), the shared merge
   byte model, and a collision estimate for the emitted output pattern. *)
let merge_estimate ~bindings ~env ~(leaf : Loop_ir.leaf) ~tensors c =
  let rows =
    match leaf.Loop_ir.leaf_row_part with
    | Some pname -> Interp.subset env pname c
    | None -> Error.fail ~piece:c Error.Leaf "merge leaf without a row part"
  in
  let rows_n = Iset.cardinal rows in
  let cols =
    (Operand.find_sparse bindings (List.hd tensors)).Tensor.dims.(1)
  in
  let entries =
    List.fold_left
      (fun acc tname ->
        let t = Operand.find_sparse bindings tname in
        let pos = (Tensor.pos_of t 1).Region.data in
        let s = ref 0 in
        Iset.iter
          (fun r ->
            let lo, hi = pos.(r) in
            s := !s + max 0 (hi - lo + 1))
          rows;
        acc + !s)
      0 tensors
  in
  let n = float_of_int entries in
  let flops = n in
  let br = if leaf.Loop_ir.use_workspace then 32. *. n else 2. *. 16. *. n in
  (* Expected emitted non-zeros: per-row Bernoulli collision model over the
     shared column extent. *)
  let out_nnz =
    if rows_n = 0 || entries = 0 then 0.
    else begin
      let k = n /. float_of_int rows_n in
      let c = float_of_int (max cols 1) in
      float_of_int rows_n *. c *. (1. -. ((1. -. (1. /. c)) ** k))
    end
  in
  let out_nnz = min out_nnz n in
  {
    Task.flops;
    bytes_read = br;
    bytes_written = 16. *. out_nnz;
    atomics = false;
  }

let price (p : Spdistal.problem) : (priced, string) result =
  try
    let machine = p.Spdistal.machine in
    let b = Spdistal.bindings p in
    (* The cold path with leaves left cold: the [Interp] backend prepares no
       closures, and nothing below executes a leaf. *)
    let e = Spdistal.plan ~trace:Trace.null ~backend:Compile_leaf.Interp p in
    let cost = Cost.create () in
    Cost.add_partitioning cost ~ops:e.Cache.e_part_ops e.Cache.e_part_seconds;
    let env =
      Interp.launch_env ~machine ~bindings:b ~placement:e.Cache.e_placement
        e.Cache.e_prepared e.Cache.e_prog
    in
    let pieces = Machine.pieces machine in
    let tstats = Stats.of_bindings b in
    List.iteri
      (fun launch -> function
        | Loop_ir.Distributed_for { shard_parts; comms; out_comm; leaf; _ }
          ->
            let comm_times = Array.make pieces 0. in
            let leaf_times = Array.make pieces 0. in
            let total_bytes = ref 0. and total_msgs = ref 0 in
            for c = 0 to pieces - 1 do
              let f = Interp.fetch env ~trace:Trace.null comms c in
              List.iter
                (fun bytes ->
                  total_bytes := !total_bytes +. bytes;
                  incr total_msgs)
                f.Interp.f_msg_bytes;
              comm_times.(c) <- f.Interp.f_time;
              let work =
                match leaf.Loop_ir.driver with
                | Loop_ir.Sparse_driver driver_name ->
                    mul_estimate ~bindings:b ~tstats ~env ~shard_parts ~leaf
                      ~driver_name c
                | Loop_ir.Merge_driver tensors ->
                    merge_estimate ~bindings:b ~env ~leaf ~tensors c
              in
              Cost.add_flops cost work.Task.flops;
              leaf_times.(c) <- Interp.leaf_time machine leaf work
            done;
            Cost.add_comm cost ~bytes:!total_bytes ~messages:!total_msgs 0.;
            Cost.record_launch_split cost ~machine ~comm_times ~leaf_times;
            Interp.reduce_output env ~trace:Trace.null ~cost ~launch
              ~kernel:leaf.Loop_ir.leaf_stmt.Tin.lhs.Tin.tensor out_comm
        | _ -> ())
      e.Cache.e_prepared.Interp.pp_loops;
    Ok
      {
        pr_total = Cost.total cost;
        pr_cost = cost;
        pr_part_seconds = e.Cache.e_part_seconds;
        pr_part_ops = e.Cache.e_part_ops;
        pr_launches = e.Cache.e_launches;
      }
  with
  | Error.Error e -> Error (Error.to_string e)
  | Invalid_argument m -> Error ("invalid candidate: " ^ m)
  | Failure m -> Error ("candidate failed: " ^ m)
