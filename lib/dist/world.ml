(* Distributed world state derived from an app's declarations: one
   codec, one hash and one live re-partition for every app. *)

open Opp_core
open Opp_core.Types
module Ckpt = Opp_resil.Ckpt
module Codec = Opp_resil.Codec

type extra =
  | Carry of string * int array * float array
  | Streams of string * int array * Rng.t array

type state = {
  fields : (string * dat) list;
  scratch : (string * dat) list;
  parts : (string * dat) list;
  p2c : map;
  meta : int list;
  extras : extra list;
}

type mesh = { set : set; gid : int array; owned : int }
type rank = { state : state; meshes : mesh list; local_cell : int -> int }

type ('layout, 'sim) app = {
  build : cell_rank:int array -> nranks:int -> 'layout;
  exchanges : 'layout -> Exch.t list;
  spawn : 'layout -> int -> 'sim;
  rank : 'layout -> int -> 'sim -> rank;
}

let particles st = st.p2c.m_from

let mesh_of r set =
  match List.find_opt (fun m -> m.set == set) r.meshes with
  | Some m -> m
  | None -> invalid_arg ("World: no layout for set " ^ set.s_name)

let cell_gid r = (mesh_of r r.state.p2c.m_to).gid

(* --- particle rows --- *)

let payload_dim st = List.fold_left (fun n (_, d) -> n + d.d_dim) 0 st.parts

let payload st p =
  let row = Array.make (payload_dim st) 0.0 in
  ignore
    (List.fold_left
       (fun o (_, d) ->
         Array.blit d.d_data (d.d_dim * p) row o d.d_dim;
         o + d.d_dim)
       0 st.parts);
  row

let pack r mail ~src ~owner ~p ~cell =
  let g = (cell_gid r).(cell) in
  Mailbox.post mail ~src ~dest:owner.(g) ~cell:g ~payload:(payload r.state p)

let unpack r batch =
  let st = r.state in
  let start = Particle.inject (particles st) (List.length batch) in
  List.iteri
    (fun i (gcell, row) ->
      let idx = start + i in
      ignore
        (List.fold_left
           (fun o (_, d) ->
             Array.blit row o d.d_data (d.d_dim * idx) d.d_dim;
             o + d.d_dim)
           0 st.parts);
      st.p2c.m_data.(idx) <- r.local_cell gcell)
    batch

(* --- checkpoint sections --- *)

let name = function Carry (n, _, _) | Streams (n, _, _) -> n
let keys = function Carry (_, k, _) | Streams (_, k, _) -> k

let get x i =
  match x with Carry (_, _, a) -> Int64.bits_of_float a.(i) | Streams (_, _, s) -> Rng.state s.(i)

let set x i v =
  match x with
  | Carry (_, _, a) -> a.(i) <- Int64.float_of_bits v
  | Streams (_, _, s) -> Rng.set_state s.(i) v

let live d = Array.sub d.d_data 0 (d.d_set.s_size * d.d_dim)

let sections st =
  let n = (particles st).s_size in
  let dat (name, d) = Ckpt.Floats (name, live d) in
  (Ckpt.Ints ("meta", Array.of_list (n :: st.meta)) :: List.map dat st.parts)
  @ (Ckpt.Ints ("p2c", Array.sub st.p2c.m_data 0 (n * st.p2c.m_arity))
    :: List.map dat (st.fields @ st.scratch))
  @ List.map
      (function
        | Carry (name, _, a) -> Ckpt.Floats (name, Array.copy a)
        | Streams (name, _, s) -> Ckpt.I64s (name, Array.map Rng.state s))
      st.extras

let corrupt fmt = Printf.ksprintf (fun s -> raise (Ckpt.Corrupt s)) fmt

let restore st sections =
  let meta = Ckpt.ints sections "meta" in
  if Array.length meta <> 1 + List.length st.meta then corrupt "bad meta section";
  List.iteri
    (fun i v ->
      if meta.(i + 1) <> v then
        corrupt "meta word %d mismatch: snapshot %d, sim %d" (i + 1) meta.(i + 1) v)
    st.meta;
  let n = meta.(0) in
  Particle.resize (particles st) n;
  let dat (name, d) =
    let a = Ckpt.floats sections name in
    if Array.length a <> d.d_set.s_size * d.d_dim then corrupt "dat %s: size mismatch" d.d_name;
    Array.blit a 0 d.d_data 0 (Array.length a)
  in
  List.iter dat st.parts;
  let p2c = Ckpt.ints sections "p2c" in
  if Array.length p2c <> n * st.p2c.m_arity then corrupt "p2c size mismatch";
  Array.blit p2c 0 st.p2c.m_data 0 (Array.length p2c);
  List.iter dat (st.fields @ st.scratch);
  List.iter
    (fun x ->
      let v =
        match x with
        | Carry (name, _, _) -> Array.map Int64.bits_of_float (Ckpt.floats sections name)
        | Streams (name, _, _) -> Ckpt.i64s sections name
      in
      if Array.length v <> Array.length (keys x) then corrupt "%s: count mismatch" (name x);
      Array.iteri (set x) v)
    st.extras;
  (* the saved halos were consistent when written *)
  List.iter (fun (_, d) -> Freshness.mark_fresh d) (st.fields @ st.scratch)

let one_shard ~step st = [| sections st @ [ Ckpt.Ints ("driver", [| step |]) ] |]

let load_one ~dir st =
  match Ckpt.load ~dir with
  | None -> None
  | Some (_, shards) ->
      if Array.length shards <> 1 then corrupt "expected a single-shard checkpoint";
      restore st shards.(0);
      Some (Ckpt.ints shards.(0) "driver").(0)

(* --- global views --- *)

let field r name = List.assoc name r.state.fields

let gather ranks name =
  let size r = (mesh_of r (field r name).d_set).owned * (field r name).d_dim in
  let g = Array.make (Array.fold_left (fun n r -> n + size r) 0 ranks) 0.0 in
  Array.iter
    (fun r ->
      let d = field r name in
      let m = mesh_of r d.d_set in
      for l = 0 to m.owned - 1 do
        Array.blit d.d_data (d.d_dim * l) g (d.d_dim * m.gid.(l)) d.d_dim
      done)
    ranks;
  g

let scatter ranks name g =
  Array.iter
    (fun r ->
      let d = field r name in
      Array.iteri
        (fun l gi -> Array.blit g (d.d_dim * gi) d.d_data (d.d_dim * l) d.d_dim)
        (mesh_of r d.d_set).gid)
    ranks

let cell_counts ranks =
  let ncells = Array.fold_left (fun n r -> n + (mesh_of r r.state.p2c.m_to).owned) 0 ranks in
  let w = Array.make ncells 0.0 in
  Array.iter
    (fun r ->
      let gid = cell_gid r and st = r.state in
      for p = 0 to (particles st).s_size - 1 do
        let g = gid.(st.p2c.m_data.(p)) in
        w.(g) <- w.(g) +. 1.0
      done)
    ranks;
  w

let state_hash ranks =
  let bits a = Array.map Int64.bits_of_float a in
  let rows =
    Array.fold_left
      (fun acc r ->
        let gid = cell_gid r and st = r.state in
        let acc = ref acc in
        for p = 0 to (particles st).s_size - 1 do
          acc := (gid.(st.p2c.m_data.(p)), payload st p) :: !acc
        done;
        !acc)
      [] ranks
    |> List.sort (fun (ga, ra) (gb, rb) ->
           let c = compare ga gb in
           if c <> 0 then c else compare (bits ra) (bits rb))
  in
  let fields =
    List.map (fun (name, _) -> Codec.checksum_floats (gather ranks name)) ranks.(0).state.fields
  in
  Codec.checksum_i64s
    (Array.of_list
       (fields
       @ [
           Codec.checksum_ints (Array.of_list (List.map fst rows));
           Codec.checksum_i64s (Array.concat (List.map (fun (_, row) -> bits row) rows));
         ]))

(* --- the epoch --- *)

let transition app ~traffic ~old:(layout, sims) ~new_owner ~dead =
  let old_nranks = Array.length sims in
  let nranks = if Option.is_none dead then old_nranks else old_nranks - 1 in
  let is_dead r = match dead with Some (d, _) -> r = d | None -> false in
  let compact r = match dead with Some (d, _) when r > d -> r - 1 | _ -> r in
  (* fence the old epoch: in-flight traffic stamped with it is stale *)
  List.iter (fun x -> Exch.fence x) (app.exchanges layout);
  let nlayout = app.build ~cell_rank:(Array.map compact new_owner) ~nranks in
  List.iter2 (fun from x -> Exch.adopt_wire_state ~from x) (app.exchanges layout)
    (app.exchanges nlayout);
  let nsims = Array.init nranks (app.spawn nlayout) in
  let olds = Array.mapi (app.rank layout) sims and news = Array.mapi (app.rank nlayout) nsims in
  (* the dead rank's state is its reconstructed sections *)
  Option.iter (fun (d, sections) -> restore olds.(d).state sections) dead;
  (* fields: regather by global id, scatter to owned and halo slots *)
  List.iter (fun (name, _) -> scatter news name (gather olds name)) olds.(0).state.fields;
  Array.iter (fun r -> List.iter (fun (_, d) -> Freshness.mark_fresh d) r.state.fields) news;
  (* keyed extras follow their global id to whichever rank now holds it *)
  List.iter
    (fun x0 ->
      let extra r = List.find (fun x -> name x = name x0) r.state.extras in
      let by_key = Hashtbl.create 64 in
      Array.iter
        (fun r ->
          let x = extra r in
          Array.iteri (fun i key -> Hashtbl.replace by_key key (get x i)) (keys x))
        olds;
      Array.iter
        (fun r ->
          let x = extra r in
          Array.iteri
            (fun i key -> Option.iter (set x i) (Hashtbl.find_opt by_key key))
            (keys x))
        news)
    olds.(0).state.extras;
  (* particles: those whose cell kept its owner re-localize in place,
     the rest (and all of a dead rank's) go through the mailbox, whose
     delivery deadline reroutes a dead destination to the cell's owner *)
  let mail = Mailbox.create ~nranks:old_nranks ~payload_dim:(payload_dim olds.(0).state) in
  Option.iter (fun (d, _) -> Mailbox.mark_dead mail d) dead;
  Array.iter (fun r -> Particle.resize (particles r.state) 0) news;
  Array.iteri
    (fun r o ->
      if not (is_dead r) then begin
        let st = o.state and gid = cell_gid o in
        let n = (particles st).s_size in
        let stays p = new_owner.(gid.(st.p2c.m_data.(p))) = r in
        let keep = ref 0 in
        for p = 0 to n - 1 do
          if stays p then incr keep
        done;
        let nr = news.(compact r) in
        Particle.resize (particles nr.state) !keep;
        let idx = ref 0 in
        for p = 0 to n - 1 do
          let g = gid.(st.p2c.m_data.(p)) in
          if stays p then begin
            List.iter2
              (fun (_, s) (_, d) ->
                Array.blit s.d_data (s.d_dim * p) d.d_data (d.d_dim * !idx) d.d_dim)
              st.parts nr.state.parts;
            nr.state.p2c.m_data.(!idx) <- nr.local_cell g;
            incr idx
          end
          else Mailbox.post mail ~src:r ~dest:new_owner.(g) ~cell:g ~payload:(payload st p)
        done
      end)
    olds;
  Option.iter
    (fun (d, _) ->
      let st = olds.(d).state and gid = cell_gid olds.(d) in
      for p = 0 to (particles st).s_size - 1 do
        Mailbox.post mail ~src:d ~dest:d ~cell:gid.(st.p2c.m_data.(p)) ~payload:(payload st p)
      done)
    dead;
  ignore
    (Mailbox.deliver ~traffic ~reroute:(fun ~cell -> new_owner.(cell)) mail (fun r batch ->
         unpack news.(compact r) batch));
  Array.iter (fun r -> Particle.reset_injected (particles r.state)) news;
  (nlayout, nsims)
