(** Execution of lowered programs against the simulated machine.

    The interpreter plays the role Legion plays for SpDISTAL's generated
    code: it materializes the program's partitions (dependent partitioning,
    §V-A), launches the distributed loop, moves the sub-regions each piece
    needs, runs the leaf kernels for real, and advances the simulated clock.

    Timing semantics: one [run] is one {e timed iteration} of the paper's
    benchmark protocol.  Partitioning happens at setup and is not charged.
    Dense operands are assumed invalidated between iterations (they are the
    vectors/factors an iterative application updates), so their
    communication recurs, exactly like PETSc's per-MatMult VecScatter;
    sparse inputs are charged only for the difference between their declared
    data distribution and what the computation needs (paper §II-D).
    {!Spdistal_runtime.Memstate} enforces capacities: [Oom] escapes to the
    caller, which reports a DNC cell (paper Fig. 11).

    Host parallelism: the pieces of each distributed launch are simulated
    concurrently on a domain pool when [domains >= 2] (explicitly, via
    {!Spdistal_runtime.Machine.set_sim_domains}, or via [SPDISTAL_DOMAINS]).
    Results are {e bit-identical} to a sequential run: piece simulations are
    pure records, every leaf that reduces into overlapping output locations
    runs on the reducing domain, and all shared state (Cost, Memstate,
    message totals, stitched outputs) is updated there in ascending piece
    order, preserving float accumulation order exactly.  The only observable
    difference is on the [Oom] path, where leaves of pieces past the
    offending one may already have run — outputs were already unspecified on
    that path. *)

open Spdistal_runtime

(** A prepared program: the partition environment, its distributed loops,
    and — under the compiled backend — one specialized closure per loop
    (aligned with [pp_loops]; [None] entries fall back to the
    interpreter). *)
type prepared = {
  pp_penv : Part_eval.env;
  pp_loops : Spdistal_ir.Loop_ir.stmt list;
  pp_leaves : Compile_leaf.t option list;
  pp_backend : Compile_leaf.backend;
}

(** [run ~machine ~bindings ~placement ?memstate ~cost ?domains ?faults
    ~prepared prog] executes [prog]'s distributed loops over the partitions
    materialized in [prepared] (from {!prepare}, e.g. through the execution
    context's cache), with the leaf backend [prepared] was built for.
    [domains] caps the OCaml domains used to simulate pieces of one launch
    concurrently (default {!Spdistal_runtime.Machine.sim_domains}; [<= 1]
    means sequential).

    [faults] (default {!Spdistal_runtime.Fault.default}, i.e. the CLI
    override or [SPDISTAL_FAULTS], else disabled) injects a deterministic
    fault schedule — node crashes, message loss, stragglers — and prices
    Legion-style recovery into [cost]: leaves still commit exactly once on
    the reducing domain, so computed tensors are {e bit-identical} to the
    fault-free run under any schedule; only per-piece times, moved bytes and
    the recovery counters change.  Recovery exhaustion (a fault recurring
    past [max_retries], or a crash with no surviving node) raises
    {!Spdistal_runtime.Error.Error} with the [Recovery] phase.

    [trace] (default {!Spdistal_obs.Trace.null}) receives the run's events:
    per-launch critical-path spans on the runtime track, per-piece
    fetch/compute spans (plus UVM paging and fault-recovery instants) on
    piece tracks, pool-occupancy spans on the host clock, comm-matrix edges
    and cumulative cost counters.  Tracing never changes computed tensors or
    [cost] — all emission happens on the reducing domain in piece order.

    [launch_base] offsets the run's launch indices, so iteration [i] of a
    warm-start run draws the same fault schedule whether or not its
    partitions came from the cache. *)
val run :
  machine:Machine.t ->
  bindings:Operand.bindings ->
  placement:Placement.t ->
  ?memstate:Memstate.t ->
  cost:Cost.t ->
  ?domains:int ->
  ?faults:Fault.config ->
  ?trace:Spdistal_obs.Trace.t ->
  prepared:prepared ->
  ?launch_base:int ->
  Spdistal_ir.Loop_ir.prog ->
  unit

(** Materialize [prog]'s partitions — and, under the compiled backend
    (default {!Compile_leaf.default_backend}), specialize its leaf loops —
    without executing its distributed loops: the value [run] takes as
    [~prepared].  [trace] (default {!Spdistal_obs.Trace.null}) receives the
    "part_eval" and "compile_leaves" phase spans and the
    dependent-partitioning operator spans. *)
val prepare :
  ?trace:Spdistal_obs.Trace.t ->
  ?backend:Compile_leaf.backend ->
  bindings:Operand.bindings ->
  Spdistal_ir.Loop_ir.prog ->
  prepared

(** Swap a prepared program to [backend], reusing its materialized
    partitions (the expensive part) and respecializing only the leaves.
    Returns [p] unchanged when its backend already matches. *)
val relink :
  ?trace:Spdistal_obs.Trace.t ->
  bindings:Operand.bindings ->
  backend:Compile_leaf.backend ->
  prepared ->
  prepared

(** {1 The per-launch cost model}

    The pieces [run] charges each distributed launch with, exposed so the
    auto-scheduler's pricer ({!Spdistal_opt.Price}) charges candidates with
    the same code: per piece, a {!fetch} of the operands it lacks and a
    scaled {!leaf_time}; per launch, the {!reduce_output} of aliased
    output ownership. *)

(** What one run's launches read besides the launch itself: machine,
    bindings, data placement, the prepared partitions and the launch
    grid. *)
type launch_env

(** Raises {!Spdistal_runtime.Error.Error} ([Config]) when [prog] was
    lowered for a different machine size. *)
val launch_env :
  machine:Machine.t ->
  bindings:Operand.bindings ->
  placement:Placement.t ->
  prepared ->
  Spdistal_ir.Loop_ir.prog ->
  launch_env

(** [subset env pname piece] is the subset of the prepared partition
    [pname] that piece [piece] selects (see {!color_for}). *)
val subset : launch_env -> string -> int -> Iset.t

(** Inclusive output-column block of piece [c] under a [col_split > 1]
    leaf (the grid's second dimension splits the output's last dimension);
    [None] otherwise. *)
val col_range : launch_env -> Spdistal_ir.Loop_ir.leaf -> int -> (int * int) option

(** One piece's fetch of the operands its launch communicates. *)
type fetch = {
  f_time : float;  (** data movement into the piece, before paging *)
  f_footprint : float;  (** bytes the piece must hold resident *)
  f_msg_bytes : float list;  (** per-message byte counts, in issue order *)
  f_edges : (int * float) list;
      (** (source node, bytes) attribution of the piece's transfers, in
          issue order; only populated when [trace] is enabled *)
}

(** [fetch env ~trace comms piece]: broadcasts of whole operands the data
    distribution does not replicate, and point-to-point transfers of the
    parts of each communicated partition the piece does not hold. *)
val fetch :
  launch_env -> trace:Spdistal_obs.Trace.t -> Spdistal_ir.Loop_ir.comm list -> int -> fetch

(** Simulated seconds of one piece's leaf doing [work]: {!Task.leaf_time},
    scaled on CPUs by the core count for a serial leaf and by Legion's
    leaf efficiency for a parallel one. *)
val leaf_time : Machine.t -> Spdistal_ir.Loop_ir.leaf -> Task.work -> float

(** Charge [cost] for reducing a launch's aliased output ownership
    ([out_comm]): the overlap between pieces' output subsets is shipped home
    in one reduction.  [launch] and [kernel] label the trace's reduce
    span. *)
val reduce_output :
  launch_env ->
  trace:Spdistal_obs.Trace.t ->
  cost:Cost.t ->
  launch:int ->
  kernel:string ->
  Spdistal_ir.Loop_ir.comm option ->
  unit

(** Color of [part] selected by piece [piece] on [grid] (exposed for tests).
    Dispatches on the partition's {!Spdistal_runtime.Partition.axis}: [Flat]
    partitions are indexed by piece id; [Grid_dim d] partitions by the
    piece's coordinate along grid dimension [d] (pieces are row-major over
    the grid). *)
val color_for :
  grid:int array -> pieces:int -> Partition.t -> int -> int
