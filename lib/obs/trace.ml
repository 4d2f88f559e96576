type span = {
  sp_name : string;
  sp_cat : string;
  sp_track : int;
  sp_depth : int;
  sp_path : string;
  sp_ts_ns : int64;
  mutable sp_dur_ns : int64;
  mutable sp_args : (string * float) list;
}

(* --- the phase ledger: closed-span durations summed per (track, cat,
   name), for consumers that need per-phase time without a trace --- *)

module Ledger = struct
  type cell = { mutable us : float }

  type t = {
    cats : string list;
    cells : (int * string * string, cell) Hashtbl.t;
    mutable order : (int * string * string) list;  (** reversed first use *)
  }

  let create ~cats = { cats; cells = Hashtbl.create 16; order = [] }

  let add l ~track ~cat name ns =
    let key = (track, cat, name) in
    let us = Int64.to_float ns /. 1e3 in
    match Hashtbl.find_opt l.cells key with
    | Some c -> c.us <- c.us +. us
    | None ->
        Hashtbl.add l.cells key { us };
        l.order <- key :: l.order

  let phases l ~track =
    List.fold_left
      (fun acc ((tr, _, name) as key) ->
        if tr = track then (name, (Hashtbl.find l.cells key).us) :: acc else acc)
      [] l.order

  let clear l = Hashtbl.iter (fun _ c -> c.us <- 0.0) l.cells
end

type t = {
  mutable epoch_ns : int64;
  mutable completed : span list;  (** reversed *)
  mutable count : int;
  mutable track : int;
  mutable adopted : span option;
      (** the span open on the track [with_track] switched away from:
          parent of a top-level span on the new track *)
  mutable ledger : Ledger.t option;
  stacks : (int, span list ref) Hashtbl.t;  (** open spans, per track *)
  track_names : (int, string) Hashtbl.t;
}

let enabled = ref false

(* [!enabled || ledger <> None]: the single branch an instrumented
   scope pays when nothing consumes its time *)
let armed = ref false

let g =
  {
    epoch_ns = Clock.now_ns ();
    completed = [];
    count = 0;
    track = 0;
    adopted = None;
    ledger = None;
    stacks = Hashtbl.create 8;
    track_names = Hashtbl.create 8;
  }

let rearm () = armed := !enabled || g.ledger <> None

let reset () =
  g.epoch_ns <- Clock.now_ns ();
  g.completed <- [];
  g.count <- 0;
  g.track <- 0;
  g.adopted <- None;
  Hashtbl.reset g.stacks;
  Hashtbl.reset g.track_names

let enable () =
  if not !enabled then begin
    reset ();
    enabled := true;
    rearm ()
  end

let disable () =
  enabled := false;
  rearm ()

let name_track r name = Hashtbl.replace g.track_names r name

let stack_for r =
  match Hashtbl.find_opt g.stacks r with
  | Some st -> st
  | None ->
      let st = ref [] in
      Hashtbl.add g.stacks r st;
      st

let with_track r f =
  let saved = g.track and saved_adopted = g.adopted in
  if !enabled then
    g.adopted <- (match !(stack_for saved) with sp :: _ -> Some sp | [] -> saved_adopted);
  g.track <- r;
  Fun.protect
    ~finally:(fun () ->
      g.track <- saved;
      g.adopted <- saved_adopted)
    f

let with_ledger l f =
  let saved = g.ledger in
  g.ledger <- Some l;
  rearm ();
  Fun.protect
    ~finally:(fun () ->
      g.ledger <- saved;
      rearm ())
    f

let depth () = if !enabled then List.length !(stack_for g.track) else 0

(* Push a span opened at absolute time [t0] on the current track. *)
let open_span ~cat ~args name t0 =
  let st = stack_for g.track in
  let parent = match !st with p :: _ -> Some p | [] -> g.adopted in
  let sp =
    {
      sp_name = name;
      sp_cat = cat;
      sp_track = g.track;
      sp_depth = (match parent with Some p -> p.sp_depth + 1 | None -> 0);
      sp_path = (match parent with Some p -> p.sp_path ^ ";" ^ name | None -> name);
      sp_ts_ns = Int64.sub t0 g.epoch_ns;
      sp_dur_ns = 0L;
      sp_args = args;
    }
  in
  st := sp :: !st;
  (st, sp)

let complete sp dur extra_args =
  sp.sp_dur_ns <- dur;
  if extra_args <> [] then sp.sp_args <- sp.sp_args @ extra_args;
  g.completed <- sp :: g.completed;
  g.count <- g.count + 1

(* Pop [sp] at absolute time [t1]. Spans still open above it were
   opened by [begin_span] inside the scope; they close here too,
   stamped ["unwound"], so they cannot corrupt nesting for the rest of
   the run. *)
let close_span (st, sp) t1 extra_args =
  let rec pop () =
    match !st with
    | [] -> ()
    | top :: rest ->
        st := rest;
        let dur = Int64.sub t1 (Int64.add g.epoch_ns top.sp_ts_ns) in
        if top == sp then complete sp dur extra_args
        else begin
          complete top dur [ ("unwound", 1.0) ];
          pop ()
        end
  in
  pop ()

let begin_span ?(cat = "") ?(args = []) name =
  if !enabled then ignore (open_span ~cat ~args name (Clock.now_ns ()))

(* The timing spine: the one clock pair of a named scope. The span is
   recorded when tracing is on, the duration added to the installed
   ledger when it takes [cat], and handed to [on_close] when given. *)
let measure ~ledger ~cat ~args ~close ~on_close name f =
  let track = g.track in
  let t0 = Clock.now_ns () in
  let opened = if !enabled then Some (open_span ~cat ~args name t0) else None in
  let finish extra =
    let t1 = Clock.now_ns () in
    let dur = Int64.sub t1 t0 in
    (match opened with Some o -> close_span o t1 (extra ()) | None -> ());
    (match ledger with Some l -> Ledger.add l ~track ~cat name dur | None -> ());
    match on_close with Some k -> k dur | None -> ()
  in
  match f () with
  | r ->
      finish (fun () -> match close with Some c -> c r | None -> []);
      r
  | exception e ->
      finish (fun () -> [ ("unwound", 1.0) ]);
      raise e

(* the installed ledger, when it takes [cat] *)
let ledger_for cat =
  match g.ledger with Some l when List.mem cat l.Ledger.cats -> g.ledger | _ -> None

let with_span ?(cat = "") ?(args = []) ?close name f =
  if not !armed then f ()
  else
    let ledger = ledger_for cat in
    if !enabled || ledger <> None then
      measure ~ledger ~cat ~args ~close ~on_close:None name f
    else f ()

let timed ?(cat = "") name f ~on_close =
  measure ~ledger:(ledger_for cat) ~cat ~args:[] ~close:None ~on_close:(Some on_close) name f

let spans () = List.rev g.completed
let span_count () = g.count

(* --- Chrome trace-event export --- *)

let us_of_ns ns = Int64.to_float ns /. 1e3

let to_chrome_json () =
  let tracks = Hashtbl.create 8 in
  List.iter (fun sp -> Hashtbl.replace tracks sp.sp_track ()) g.completed;
  let track_meta =
    Hashtbl.fold (fun r () acc -> r :: acc) tracks []
    |> List.sort compare
    |> List.map (fun r ->
           let name =
             match Hashtbl.find_opt g.track_names r with
             | Some n -> n
             | None -> Printf.sprintf "rank %d" r
           in
           Json.Obj
             [
               ("ph", Json.Str "M");
               ("name", Json.Str "thread_name");
               ("pid", Json.Num 0.0);
               ("tid", Json.Num (float_of_int r));
               ("args", Json.Obj [ ("name", Json.Str name) ]);
             ])
  in
  let events =
    List.rev_map
      (fun sp ->
        let base =
          [
            ("ph", Json.Str "X");
            ("name", Json.Str sp.sp_name);
            ("cat", Json.Str (if sp.sp_cat = "" then "span" else sp.sp_cat));
            ("pid", Json.Num 0.0);
            ("tid", Json.Num (float_of_int sp.sp_track));
            ("ts", Json.Num (us_of_ns sp.sp_ts_ns));
            ("dur", Json.Num (us_of_ns sp.sp_dur_ns));
          ]
        in
        let fields =
          if sp.sp_args = [] then base
          else
            base
            @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) sp.sp_args)) ]
        in
        Json.Obj fields)
      g.completed
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (track_meta @ events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_chrome_json ())))

(* --- flamegraph-style text summary --- *)

type row = { r_path : string; r_calls : int; r_total_ns : int64; r_self_ns : int64 }

type agg = { mutable a_calls : int; mutable a_total_ns : int64; mutable a_child_ns : int64 }

let rows () =
  let by_path : (string, agg) Hashtbl.t = Hashtbl.create 64 in
  let touch path =
    match Hashtbl.find_opt by_path path with
    | Some a -> a
    | None ->
        let a = { a_calls = 0; a_total_ns = 0L; a_child_ns = 0L } in
        Hashtbl.add by_path path a;
        a
  in
  List.iter
    (fun sp ->
      let a = touch sp.sp_path in
      a.a_calls <- a.a_calls + 1;
      a.a_total_ns <- Int64.add a.a_total_ns sp.sp_dur_ns;
      (* charge this span's time to its parent's child-total *)
      match String.rindex_opt sp.sp_path ';' with
      | Some i ->
          let parent = String.sub sp.sp_path 0 i in
          let pa = touch parent in
          pa.a_child_ns <- Int64.add pa.a_child_ns sp.sp_dur_ns
      | None -> ())
    g.completed;
  Hashtbl.fold
    (fun path a acc ->
      {
        r_path = path;
        r_calls = a.a_calls;
        r_total_ns = a.a_total_ns;
        r_self_ns = Int64.sub a.a_total_ns a.a_child_ns;
      }
      :: acc)
    by_path []
  |> List.sort (fun a b -> compare a.r_path b.r_path)

let summary fmt () =
  let ms ns = Int64.to_float ns /. 1e6 in
  Format.fprintf fmt "%-52s %8s %12s %12s@." "span path" "calls" "total(ms)" "self(ms)";
  List.iter
    (fun r ->
      let path = r.r_path in
      let depth =
        String.fold_left (fun acc c -> if c = ';' then acc + 1 else acc) 0 path
      in
      let leaf =
        match String.rindex_opt path ';' with
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
        | None -> path
      in
      let indented = String.make (2 * depth) ' ' ^ leaf in
      Format.fprintf fmt "%-52s %8d %12.3f %12.3f@." indented r.r_calls (ms r.r_total_ns)
        (ms r.r_self_ns))
    (rows ())
