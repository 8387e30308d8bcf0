(* In-memory spans recorded by the benchmark around its calls into the
   program's layers.  A span has a name, a start, an end, the span that
   caused it and the request it belongs to; spans are kept in memory
   and summarised when the run ends.

   One tracer belongs to one domain (each serving client owns one), so
   recording takes no lock.  The tracer also times itself: every clock
   read and record it makes is charged to [overhead], which is the
   traced-minus-untraced wall time the trace adds to a run. *)

type span = {
  name : string;
  req : int;
  parent : int;  (* index of the causing span, -1 for a root *)
  mutable start : float;
  mutable stop : float;
}

type t = {
  enabled : bool;
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;  (* open spans, innermost first *)
  mutable overhead : float;
}

let now = Xqdb_storage.Monotonic.now

let create ~enabled =
  { enabled; spans = [||]; len = 0; stack = []; overhead = 0. }

let push t s =
  if t.len = Array.length t.spans then begin
    let grown = Array.make (max 256 (2 * t.len)) s in
    Array.blit t.spans 0 grown 0 t.len;
    t.spans <- grown
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1

(* [with_span t name ~req f] runs [f] inside a span; a disabled tracer
   just runs [f]. *)
let with_span t name ~req f =
  if not t.enabled then f ()
  else begin
    let t0 = now () in
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let id = t.len in
    push t { name; req; parent; start = 0.; stop = 0. };
    t.stack <- id :: t.stack;
    let started = now () in
    t.spans.(id).start <- started;
    t.overhead <- t.overhead +. (started -. t0);
    let finish () =
      let stopped = now () in
      t.spans.(id).stop <- stopped;
      t.stack <- List.tl t.stack;
      t.overhead <- t.overhead +. (now () -. stopped)
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let spans t = Array.to_list (Array.sub t.spans 0 t.len)

(* Length of the part of [lo, hi] covered by the union of [intervals]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part of it that its child
   spans cover. *)
let self_time ~start ~stop children = stop -. start -. covered ~lo:start ~hi:stop children

(* Total self time and count per span name, over one or more tracers'
   spans. *)
let self_times span_lists =
  let totals = Hashtbl.create 16 in
  List.iter
    (fun spans ->
      let arr = Array.of_list spans in
      let children = Array.make (Array.length arr) [] in
      Array.iter
        (fun s -> if s.parent >= 0 then children.(s.parent) <- (s.start, s.stop) :: children.(s.parent))
        arr;
      Array.iteri
        (fun i s ->
          let self = self_time ~start:s.start ~stop:s.stop children.(i) in
          let sum, n = Option.value (Hashtbl.find_opt totals s.name) ~default:(0., 0) in
          Hashtbl.replace totals s.name (sum +. self, n + 1))
        arr)
    span_lists;
  totals
