module github.com/sss-paper/sss/benchmark

go 1.24

require github.com/sss-paper/sss v0.0.0

replace github.com/sss-paper/sss => ../
