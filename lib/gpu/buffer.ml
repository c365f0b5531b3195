type t = { id : int; name : string; len : int; data : int array }

let length b = b.len

let bytes b = 4 * length b

let stored b = Array.length b.data = b.len

let fill b v = Array.fill b.data 0 (Array.length b.data) v

let to_array b = if stored b then Array.copy b.data else Array.make b.len 0
