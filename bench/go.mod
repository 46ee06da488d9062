module raal/bench

go 1.22

require raal v0.0.0

replace raal => ../
