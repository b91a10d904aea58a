module adamant/benchmark

go 1.23

require adamant v0.0.0

replace adamant => ../
