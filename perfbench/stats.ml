(* Order statistics for the benchmark's timings.

   Percentiles use the nearest-rank rule on the sorted samples: the
   q-th percentile of n samples is the sample at 1-based rank ceil(q*n).
   A percentile is only worth reporting when enough samples lie beyond
   it to make it more than one unlucky outlier, so [tail] refuses a
   percentile with fewer than [min_beyond] samples above its rank. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let rank ~q n = max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

let percentile ~q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank ~q n - 1)

let median xs = percentile ~q:0.5 xs

let beyond ~q n = n - rank ~q n

(* The q-th percentile, if at least [min_beyond] samples lie beyond it. *)
let tail ~q xs =
  let n = List.length xs in
  if n = 0 || beyond ~q n < min_beyond then None else Some (percentile ~q xs)

(* The highest of the conventional percentiles that [tail] accepts for
   [n] samples: the "p" printed beside every median. *)
let ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

let highest_tail n = List.find_opt (fun q -> n > 0 && beyond ~q n >= min_beyond) ladder

let sum xs = List.fold_left ( +. ) 0. xs

(* The interquartile mean: the mean of the samples left after the
   lowest and the highest quarter (rounded down) are dropped.  Robust to
   a stray slow run like the median, but it averages the rest, so a
   time a few clock ticks long is not stuck on one tick. *)
let iqm xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.iqm: no samples";
  let drop = n / 4 in
  sum (Array.to_list (Array.sub a drop (n - (2 * drop)))) /. float_of_int (n - (2 * drop))

let geomean xs =
  if xs = [] || List.exists (fun x -> x <= 0.) xs then invalid_arg "Stats.geomean: needs positive samples";
  Float.exp (sum (List.map Float.log xs) /. float_of_int (List.length xs))

(* Events per second in each of [count] consecutive windows of [width]
   seconds from [start]; events outside every window are not counted. *)
let window_rates ~start ~width ~count instants =
  let hits = Array.make count 0 in
  List.iter
    (fun t ->
      let w = int_of_float (Float.floor ((t -. start) /. width)) in
      if w >= 0 && w < count then hits.(w) <- hits.(w) + 1)
    instants;
  Array.to_list (Array.map (fun h -> float_of_int h /. width) hits)

(* "median 1.23, p99 4.56 (n=2500)" — every timing is printed this way. *)
let describe ~scale xs =
  let n = List.length xs in
  if n = 0 then "n=0"
  else
    let med = scale *. median xs in
    match highest_tail n with
    | Some q when q > 0.5 ->
      Printf.sprintf "median %.4g, p%g %.4g (n=%d)" med (100. *. q)
        (scale *. percentile ~q xs) n
    | Some _ | None -> Printf.sprintf "median %.4g (n=%d)" med n
