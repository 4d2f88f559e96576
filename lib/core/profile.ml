(** Per-kernel instrumentation ledger.

    Every loop execution records wall time, iteration count, and the
    estimated double-precision flops and bytes it moved. The roofline
    and runtime-breakdown reports in [opp_perf] are generated from
    these records, mirroring the paper's code instrumentation. *)

type entry = {
  mutable calls : int;
  mutable elems : int;
  mutable seconds : float;
  mutable flops : float;
  mutable bytes : float;
}

type t = { table : (string, entry) Hashtbl.t; mutable order : string list }

let create () = { table = Hashtbl.create 32; order = [] }

(* The default ledger; backends record here unless given another. *)
let global = create ()

let find t name =
  match Hashtbl.find_opt t.table name with
  | Some e -> e
  | None ->
      let e = { calls = 0; elems = 0; seconds = 0.0; flops = 0.0; bytes = 0.0 } in
      Hashtbl.add t.table name e;
      t.order <- name :: t.order;
      e

let record ?(t = global) ~name ~elems ~seconds ~flops ~bytes () =
  let e = find t name in
  e.calls <- e.calls + 1;
  e.elems <- e.elems + elems;
  e.seconds <- e.seconds +. seconds;
  e.flops <- e.flops +. flops;
  e.bytes <- e.bytes +. bytes

(** Run [f] as a [host] scope of the timing spine
    ([Opp_obs.Trace.timed]: one clock pair, a span when tracing is on)
    and record its duration into the ledger under [name] — for
    host-side phases such as the field solver that are not expressed
    as loops. Recorded even when [f] raises. *)
let timed ?(t = global) ~name ?(elems = 0) ?(flops = 0.0) ?(bytes = 0.0) f =
  Opp_obs.Trace.timed ~cat:"host" name f ~on_close:(fun ns ->
      record ~t ~name ~elems ~seconds:(Int64.to_float ns *. 1e-9) ~flops ~bytes ())

(** Add modelled (as opposed to measured) seconds to a kernel entry. *)
let add_seconds ?(t = global) ~name s =
  let e = find t name in
  e.seconds <- e.seconds +. s

let reset ?(t = global) () =
  Hashtbl.reset t.table;
  t.order <- []

let entries ?(t = global) () =
  List.rev_map (fun name -> (name, Hashtbl.find t.table name)) t.order

(** Fold [src] into [into]: entries with the same kernel name have
    their fields summed; new names append in [src]'s first-recorded
    order. Used to combine per-rank ledgers into one report. *)
let merge ~into src =
  List.iter
    (fun (name, (e : entry)) ->
      let dst = find into name in
      dst.calls <- dst.calls + e.calls;
      dst.elems <- dst.elems + e.elems;
      dst.seconds <- dst.seconds +. e.seconds;
      dst.flops <- dst.flops +. e.flops;
      dst.bytes <- dst.bytes +. e.bytes)
    (entries ~t:src ())

let total_seconds ?(t = global) () =
  Hashtbl.fold (fun _ e acc -> acc +. e.seconds) t.table 0.0

(** Arithmetic intensity (flop/byte) of a kernel, if it recorded any
    traffic. *)
let intensity e = if e.bytes > 0.0 then Some (e.flops /. e.bytes) else None

let pp fmt ?(t = global) () =
  Format.fprintf fmt "%-28s %10s %12s %10s %10s %10s %8s@." "kernel" "calls" "elems" "time(s)"
    "GF/s" "GB/s" "flop/B";
  List.iter
    (fun (name, e) ->
      let gflops = if e.seconds > 0.0 then e.flops /. e.seconds /. 1e9 else 0.0 in
      let gbytes = if e.seconds > 0.0 then e.bytes /. e.seconds /. 1e9 else 0.0 in
      let ai = match intensity e with Some i -> Printf.sprintf "%8.3f" i | None -> "       -" in
      Format.fprintf fmt "%-28s %10d %12d %10.4f %10.3f %10.3f %s@." name e.calls e.elems
        e.seconds gflops gbytes ai)
    (entries ~t ())
