let min_beyond = 10

let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))

let nearest_rank xs p =
  if not (p > 0. && p < 100.) then invalid_arg "Pct.nearest_rank: p";
  let n = Array.length xs in
  if n = 0 then None
  else
    let k = rank ~n p in
    if n - k < min_beyond then None
    else begin
      let a = Array.copy xs in
      Array.sort Float.compare a;
      Some (a.(k - 1), n)
    end

let needed p =
  let rec go n = if n - rank ~n p >= min_beyond then n else go (n + 1) in
  go 1

let median xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
  end
