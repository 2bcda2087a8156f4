module rollrec/benchmark

go 1.22

require rollrec v0.0.0

replace rollrec => ../
