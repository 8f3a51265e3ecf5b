type track =
  | Runtime
  | Piece of { node : int; piece : int }
  | Host of int
  | Tenant of int

type clock = Sim | Wall

type value = I of int | F of float | S of string | B of bool

type span = {
  sp_track : track;
  sp_clock : clock;
  sp_cat : string;
  sp_name : string;
  sp_start : float;
  sp_dur : float;
  sp_args : (string * value) list;
}

type counter = {
  ct_name : string;
  ct_time : float;
  ct_series : (string * float) list;
}

type t = {
  on : bool;
  epoch : float;
  mutable spans : span list;  (* newest first *)
  mutable counters : counter list;  (* newest first *)
  edges : (int * int, float ref) Hashtbl.t;
  mutable meta : (string * string) list;
}

let create () =
  {
    on = true;
    epoch = Unix.gettimeofday ();
    spans = [];
    counters = [];
    edges = Hashtbl.create 16;
    meta = [];
  }

let null =
  {
    on = false;
    epoch = 0.;
    spans = [];
    counters = [];
    edges = Hashtbl.create 1;
    meta = [];
  }

let enabled t = t.on

let now t = if t.on then Unix.gettimeofday () -. t.epoch else 0.
let epoch t = t.epoch

let span t ~track ~clock ~cat ?(args = []) ~start ~dur name =
  if t.on then
    t.spans <-
      {
        sp_track = track;
        sp_clock = clock;
        sp_cat = cat;
        sp_name = name;
        sp_start = start;
        sp_dur = dur;
        sp_args = args;
      }
      :: t.spans

let with_wall_span t ~track ~cat ~name f =
  if not t.on then f ()
  else begin
    let start = now t in
    let v = f () in
    span t ~track ~clock:Wall ~cat ~start ~dur:(now t -. start) name;
    v
  end

let counter t ~name ~time series =
  if t.on then
    t.counters <- { ct_name = name; ct_time = time; ct_series = series } :: t.counters

let comm_edge t ~src ~dst bytes =
  if t.on && bytes > 0. then
    match Hashtbl.find_opt t.edges (src, dst) with
    | Some r -> r := !r +. bytes
    | None -> Hashtbl.add t.edges (src, dst) (ref bytes)

let set_meta t k v =
  if t.on then t.meta <- (k, v) :: List.remove_assoc k t.meta

let spans t = List.rev t.spans
let counters t = List.rev t.counters

let comm_matrix ?(min_nodes = 0) t =
  let n =
    Hashtbl.fold (fun (s, d) _ acc -> max acc (max s d + 1)) t.edges min_nodes
  in
  let m = Array.make_matrix n n 0. in
  Hashtbl.iter (fun (s, d) r -> m.(s).(d) <- !r) t.edges;
  m

let meta t = List.rev t.meta

let track_label = function
  | Runtime -> "runtime"
  | Piece { node; piece } -> Printf.sprintf "node %d / piece %d" node piece
  | Host d -> Printf.sprintf "host domain %d" d
  | Tenant t -> Printf.sprintf "tenant %d" t
