module bonsai/bench

go 1.23

require bonsai v0.0.0

replace bonsai => ../
