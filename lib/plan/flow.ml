(** Whole-step dataflow over a {!Prog.t}: halo-freshness propagation,
    halo-liveness (backward), dead-write detection and fusion legality.

    A PIC step is cyclic — step [n]'s tail feeds step [n+1]'s head — so
    both the forward freshness pass and the backward liveness pass run
    to a cyclic fixpoint (iterate the step's transfer function until
    the entry state is stable) instead of assuming a clean boundary.

    Diagnostics emitted here (catalogue in docs/ANALYSIS.md):
    - [W110] — a halo exchange whose result is provably redundant:
      either the halo copies are already fresh at the site (nothing
      dirtied them since the previous exchange), or nothing reads the
      halo copies it refreshes before they are next overwritten.
    - [W111] — a dat write overwritten by a later full write with no
      intervening read (dead store at step granularity).
    - [I120] — two adjacent same-set, same-iterate par_loops with no
      fusion-blocking dependence: legal to run as one loop body.
    - [E090] — an indirect read of a dat whose halo is stale at the
      read, even though the step does exchange that dat elsewhere: the
      exchange is on the wrong side of the read.

    Freshness semantics mirror the runtime {!Opp_dist.Freshness}
    tracker: any write dirties, [exchange] and [fresh] restore
    consistency, [reduce] consumes the halo copies (owners change,
    halos are zeroed — NOT consistent afterwards). *)

module D = Opp_check.Descriptor
module S = Opp_check.Static
module Diag = Opp_check.Diag

type xinfo = {
  x_site : string;
  x_dats : string list;
  x_redundant : bool;  (** every dat already fresh at the site *)
  x_unused : bool;  (** no halo copy it refreshes is read before overwritten *)
  x_probe : bool;  (** site is an elided placeholder, not a live exchange *)
}

type result = {
  f_diags : Diag.t list;
  f_exchanges : xinfo list;
  f_groups : string list list;  (** fusable runs of adjacent loops, length >= 2 *)
}

(* ------------------------------------------------------------------ *)
(* Dat classification.                                                 *)

(* Only mesh dats participate in halo reasoning: particle sets migrate
   rather than exchange. *)
let mesh_dats (desc : D.t) =
  List.filter_map
    (fun (d : D.dat_d) ->
      match D.find_set desc d.D.dd_set with
      | Some s when s.D.sd_cells = None -> Some d.D.dd_name
      | _ -> None)
    desc.D.pr_dats

let exchanged_dats (prog : Prog.t) =
  List.concat_map
    (function Prog.Exchange c | Prog.Probe c -> c.Prog.c_dats | _ -> [])
    prog.Prog.pg_events
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* State tables.                                                       *)

type state = (string, bool) Hashtbl.t

let state_make dats v =
  let t = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace t d v) dats;
  t

let state_get (t : state) d = try Hashtbl.find t d with Not_found -> true
let state_set (t : state) d v = if Hashtbl.mem t d then Hashtbl.replace t d v
let state_copy (t : state) = Hashtbl.copy t

let state_equal (a : state) (b : state) =
  Hashtbl.fold (fun k v acc -> acc && Hashtbl.find_opt b k = Some v) a true

let direct (a : D.arg_d) = a.D.ad_map = None && a.D.ad_p2c = None

let dat_args (l : D.loop_d) = List.filter (fun a -> a.D.ad_dat <> None) l.D.ld_args
let has_global (l : D.loop_d) = List.exists (fun a -> a.D.ad_dat = None) l.D.ld_args

(* ------------------------------------------------------------------ *)
(* Forward freshness.                                                  *)

(* One application of the step's transfer function to [fresh]. When
   [report] is set, emit W110 (redundant-fresh) and E090 into [diags]
   and record per-site / per-probe freshness into [sites]. *)
let fresh_pass ?(report = false) ~exchanged (prog : Prog.t) (fresh : state)
    (sites : (string, bool) Hashtbl.t) (diags : Diag.t list ref) =
  let dirty d = state_set fresh d false in
  let freshen d = state_set fresh d true in
  List.iter
    (fun (ev : Prog.event) ->
      match ev with
      | Prog.Loop { e_loop; _ } ->
          if report then
            List.iter
              (fun (a : D.arg_d) ->
                match a.D.ad_dat with
                | Some d
                  when (not (direct a))
                       && (a.D.ad_acc = D.Read || a.D.ad_acc = D.Rw)
                       && (not (state_get fresh d))
                       && List.mem d exchanged ->
                    diags :=
                      Diag.make ~code:"E090" ~loop:e_loop.D.ld_name ~dat:d
                        "indirect read through a stale halo: dat %s is dirtied before this \
                         loop but its exchange happens elsewhere in the step (exchange \
                         ordering violation)"
                        d
                      :: !diags
                | _ -> ())
              (dat_args e_loop);
          (* any write (direct, indirect, inc) leaves halo copies
             inconsistent with owners, matching Freshness.mark_dirty *)
          List.iter
            (fun (a : D.arg_d) ->
              match a.D.ad_dat with
              | Some d when S.writes_acc a.D.ad_acc -> dirty d
              | _ -> ())
            (dat_args e_loop)
      | Prog.Exchange c ->
          if report then begin
            let all_fresh = List.for_all (state_get fresh) c.Prog.c_dats in
            Hashtbl.replace sites c.Prog.c_site all_fresh
          end;
          List.iter freshen c.Prog.c_dats
      | Prog.Probe c ->
          if report then
            Hashtbl.replace sites c.Prog.c_site
              (List.for_all (state_get fresh) c.Prog.c_dats)
          (* an elided exchange changes nothing: elision is only legal
             because the copies were already fresh or never read *)
      | Prog.Reduce c -> List.iter dirty c.Prog.c_dats
      | Prog.Fresh ds -> List.iter freshen ds
      | Prog.Opaque o ->
          List.iter dirty o.Prog.o_writes;
          List.iter freshen o.Prog.o_fresh)
    prog.Prog.pg_events

(* ------------------------------------------------------------------ *)
(* Backward halo-liveness.                                             *)

(* One backward application to [live]: live(d) means "some later event
   reads the halo copies of d before they are overwritten". When
   [report] is set, record per-site usage (a live dat at an exchange
   site means the exchange's output is consumed). *)
let live_pass ?(report = false) (prog : Prog.t) (live : state)
    (used : (string, bool) Hashtbl.t) =
  List.iter
    (fun (ev : Prog.event) ->
      match ev with
      | Prog.Exchange c | Prog.Probe c ->
          if report then
            Hashtbl.replace used c.Prog.c_site
              (List.exists (fun d -> state_get live d) c.Prog.c_dats);
          (* the exchange overwrites every halo copy: values before it
             are dead *)
          List.iter (fun d -> state_set live d false) c.Prog.c_dats
      | Prog.Reduce c ->
          (* reduce consumes the halo contributions: they are read *)
          List.iter (fun d -> state_set live d true) c.Prog.c_dats
      | Prog.Fresh _ -> ()
      | Prog.Opaque o ->
          List.iter (fun d -> state_set live d false) o.Prog.o_writes;
          List.iter (fun d -> state_set live d false) o.Prog.o_fresh;
          List.iter (fun d -> state_set live d true) o.Prog.o_hreads
      | Prog.Loop { e_loop; e_iterate } ->
          let it = match e_loop.D.ld_kind with D.Particle_move_d -> `All | _ -> e_iterate in
          (* does any halo element's output from this loop matter? An
             indirect write from a halo element can land in an owned
             slot, so it is always observable *)
          let out_live =
            List.exists
              (fun (a : D.arg_d) ->
                match a.D.ad_dat with
                | Some d -> S.writes_acc a.D.ad_acc && state_get live d
                | None -> false)
              e_loop.D.ld_args
            || it = `All
               && (has_global e_loop
                  || List.exists
                       (fun a -> S.writes_acc a.D.ad_acc && not (direct a))
                       (dat_args e_loop))
          in
          (* kills: a direct full-range pure overwrite makes prior halo
             values unobservable *)
          List.iter
            (fun (a : D.arg_d) ->
              match a.D.ad_dat with
              | Some d when direct a && a.D.ad_acc = D.Write && it = `All ->
                  state_set live d false
              | _ -> ())
            (dat_args e_loop);
          (* gen: indirect reads may address halo copies; direct reads
             observe them only when the loop itself runs over the halo
             AND its output at halo elements is observed *)
          List.iter
            (fun (a : D.arg_d) ->
              match a.D.ad_dat with
              | Some d when S.reads_acc a.D.ad_acc ->
                  if not (direct a) then state_set live d true
                  else if it = `All && out_live then state_set live d true
              | _ -> ())
            (dat_args e_loop))
    (List.rev prog.Prog.pg_events)

(* ------------------------------------------------------------------ *)
(* Dead writes (W111).                                                 *)

(* Cyclic forward scan from each direct pure write: if the next access
   of the dat is a covering write (or the cycle closes with no access
   at all), the store is dead at step granularity. Only meaningful
   when the whole step — including host-side consumers declared as
   opaque events — is visible, so callers gate on step structure. *)
let dead_writes (prog : Prog.t) =
  let events = Array.of_list prog.Prog.pg_events in
  let n = Array.length events in
  let diags = ref [] in
  let reads_of ev d =
    match (ev : Prog.event) with
    | Prog.Loop { e_loop; _ } ->
        List.exists
          (fun (a : D.arg_d) -> a.D.ad_dat = Some d && S.reads_acc a.D.ad_acc)
          e_loop.D.ld_args
    | Prog.Exchange c | Prog.Probe c -> List.mem d c.Prog.c_dats (* reads owner values *)
    | Prog.Reduce c -> List.mem d c.Prog.c_dats (* reads halos AND owners *)
    | Prog.Fresh _ -> false
    | Prog.Opaque o -> List.mem d o.Prog.o_reads || List.mem d o.Prog.o_hreads
  in
  let kills ev d ~(writer_it : Prog.iterate) =
    match (ev : Prog.event) with
    | Prog.Loop { e_loop; e_iterate } ->
        e_loop.D.ld_kind = D.Par_loop_d
        && (e_iterate = `All || e_iterate = writer_it)
        && List.exists
             (fun (a : D.arg_d) -> a.D.ad_dat = Some d && direct a && a.D.ad_acc = D.Write)
             e_loop.D.ld_args
    | Prog.Opaque o -> List.mem d (o.Prog.o_writes @ o.Prog.o_fresh)
    | _ -> false
  in
  Array.iteri
    (fun i ev ->
      match (ev : Prog.event) with
      | Prog.Loop { e_loop; e_iterate } when e_loop.D.ld_kind = D.Par_loop_d ->
          List.iter
            (fun (a : D.arg_d) ->
              match a.D.ad_dat with
              | Some d when direct a && a.D.ad_acc = D.Write ->
                  (* walk the cycle starting after this event *)
                  let rec scan k steps =
                    if steps >= n then
                      diags :=
                        Diag.make ~code:"W111" ~loop:e_loop.D.ld_name ~dat:d
                          "dead write: dat %s is written here but never read anywhere in \
                           the step cycle"
                          d
                        :: !diags
                    else
                      let j = (i + 1 + k) mod n in
                      if reads_of events.(j) d then ()
                      else if kills events.(j) d ~writer_it:e_iterate then
                        diags :=
                          Diag.make ~code:"W111" ~loop:e_loop.D.ld_name ~dat:d
                            "dead write: dat %s is fully overwritten by %s before any read"
                            d
                            (Prog.event_name events.(j))
                          :: !diags
                      else scan (k + 1) (steps + 1)
                  in
                  scan 0 0
              | _ -> ())
            (dat_args e_loop)
      | _ -> ())
    events;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Fusion legality (I120).                                             *)

(** Can these two adjacent loops legally run as one loop body with
    bit-identical results? Requires: both par_loops over the same set
    and iterate; no shared dat that anyone writes with any indirect
    access on either side (indirect accesses cross elements, so
    per-element interleaving reorders them); at most one side carrying
    a global reduction (two interleaved reductions reorder float
    accumulation). Direct-direct sharing is safe: per element, the
    fused body runs loop 1 before loop 2, exactly the sequential
    order for that element. *)
let fusable_pair (l1 : D.loop_d) it1 (l2 : D.loop_d) it2 =
  l1.D.ld_kind = D.Par_loop_d
  && l2.D.ld_kind = D.Par_loop_d
  && l1.D.ld_set = l2.D.ld_set
  && it1 = it2
  && (not (has_global l1 && has_global l2))
  &&
  let fp1 = S.footprint l1 and fp2 = S.footprint l2 in
  List.for_all
    (fun (d, acc1, ind1) ->
      List.for_all
        (fun (d', acc2, ind2) ->
          d <> d'
          || (not (S.writes_acc acc1 || S.writes_acc acc2))
          || not (ind1 || ind2))
        fp2)
    fp1

(* Maximal runs of adjacent loops in which EVERY pair is fusable.
   Consecutive legality is not enough: with loop 1 writing a dat
   indirectly, loop 2 not touching it and loop 3 reading it
   indirectly, both adjacent pairs pass while interleaving loops 1
   and 3 still reorders the cross-element accesses. *)
let fusable_groups (prog : Prog.t) =
  let flush acc = function
    | Some ms when List.length ms > 1 ->
        List.rev_map (fun ((l : D.loop_d), _) -> l.D.ld_name) ms :: acc
    | _ -> acc
  in
  let rec runs acc cur = function
    | Prog.Loop { e_loop; e_iterate } :: rest -> (
        match cur with
        | Some members
          when List.for_all (fun (l, it) -> fusable_pair l it e_loop e_iterate) members ->
            runs acc (Some ((e_loop, e_iterate) :: members)) rest
        | _ -> runs (flush acc cur) (Some [ (e_loop, e_iterate) ]) rest)
    | _ :: rest -> runs (flush acc cur) None rest
    | [] -> List.rev (flush acc cur)
  in
  runs [] None prog.Prog.pg_events

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)

let max_passes = 8

let analyze (prog : Prog.t) : result =
  let dats = mesh_dats prog.Prog.pg_desc in
  let exchanged = exchanged_dats prog in
  let has_steps = Prog.has_step_structure prog in
  let diags = ref [] in
  (* forward freshness to cyclic fixpoint, then one reporting pass *)
  let fresh_sites = Hashtbl.create 8 in
  let fresh = state_make dats true in
  if has_steps then begin
    let rec iter n =
      let before = state_copy fresh in
      fresh_pass ~exchanged prog fresh fresh_sites diags;
      if (not (state_equal before fresh)) && n < max_passes then iter (n + 1)
    in
    iter 0;
    fresh_pass ~report:true ~exchanged prog fresh fresh_sites diags
  end;
  (* backward liveness to cyclic fixpoint, then one reporting pass *)
  let used_sites = Hashtbl.create 8 in
  let live = state_make dats false in
  if has_steps then begin
    let rec iter n =
      let before = state_copy live in
      live_pass prog live used_sites;
      if (not (state_equal before live)) && n < max_passes then iter (n + 1)
    in
    iter 0;
    live_pass ~report:true prog live used_sites
  end;
  let xinfos =
    List.filter_map
      (fun (ev : Prog.event) ->
        match ev with
        | Prog.Exchange c | Prog.Probe c ->
            let redundant = Hashtbl.find_opt fresh_sites c.Prog.c_site = Some true in
            let unused = Hashtbl.find_opt used_sites c.Prog.c_site = Some false in
            Some
              {
                x_site = c.Prog.c_site;
                x_dats = c.Prog.c_dats;
                x_redundant = redundant;
                x_unused = unused;
                x_probe = (match ev with Prog.Probe _ -> true | _ -> false);
              }
        | _ -> None)
      prog.Prog.pg_events
  in
  List.iter
    (fun x ->
      if not x.x_probe then
        if x.x_redundant then
          diags :=
            Diag.make ~code:"W110" ~dat:(String.concat "," x.x_dats)
              "redundant halo exchange %s: halo copies are already fresh at this site \
               (nothing dirtied them since the previous exchange)"
              x.x_site
            :: !diags
        else if x.x_unused then
          diags :=
            Diag.make ~code:"W110" ~dat:(String.concat "," x.x_dats)
              "redundant halo exchange %s: no halo copy it refreshes is read before being \
               overwritten"
              x.x_site
            :: !diags)
    xinfos;
  (* dead writes, gated like freshness on whole-step visibility *)
  if has_steps then diags := List.rev_append (dead_writes prog) !diags;
  (* fusion is meaningful on any ordered program *)
  let groups = fusable_groups prog in
  List.iter
    (fun g ->
      match g with
      | first :: _ ->
          diags :=
            Diag.make ~code:"I120" ~loop:first
              "fusable loop group [%s]: adjacent, same set and iterate, no \
               fusion-blocking dependence — legal to run as one loop body"
              (String.concat " + " g)
            :: !diags
      | [] -> ())
    groups;
  { f_diags = List.rev !diags; f_exchanges = xinfos; f_groups = groups }

(* ------------------------------------------------------------------ *)
(* JSON rendering for oppic_lint --json.                               *)

let result_to_json (prog : Prog.t) (r : result) : Opp_obs.Json.t =
  Opp_obs.Json.Obj
    [
      ("program", Str prog.Prog.pg_name);
      ( "exchanges",
        Arr
          (List.map
             (fun x ->
               Opp_obs.Json.Obj
                 [
                   ("site", Str x.x_site);
                   ("dats", Arr (List.map (fun d -> Opp_obs.Json.Str d) x.x_dats));
                   ("redundant", Bool x.x_redundant);
                   ("unused", Bool x.x_unused);
                   ("elided", Bool x.x_probe);
                 ])
             r.f_exchanges) );
      ( "fusable_groups",
        Arr
          (List.map
             (fun g -> Opp_obs.Json.Arr (List.map (fun s -> Opp_obs.Json.Str s) g))
             r.f_groups) );
      ("diagnostics", Arr (List.map Diag.to_json r.f_diags));
    ]
