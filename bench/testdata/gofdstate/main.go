// A deliberately broken Go program for the fd-state analysis: run
//
//	cqual -lang go -analysis fdstate -prelude examples/go-fdstate/fd.q ./examples/go-fdstate/dirty
//
// and both flows below are reported with their step-by-step path from
// the Close call to the violated bound. The clean twin in ../clean
// keeps Close downstream of every read and passes.
package main

import (
	"fmt"
	"os"
)

// readConfig closes the file on the error path and then reads from it
// unconditionally: a use-after-close.
func readConfig(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		f.Close()
	}
	buf := make([]byte, 512)
	n, err := f.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// staleHandle returns a file it already closed: the caller receives a
// handle it can only double-close.
func staleHandle(path string) *os.File {
	f, _ := os.Open(path)
	f.Close()
	return f
}

func main() {
	b, err := readConfig("config.toml")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d bytes\n", len(b))
	_ = staleHandle("state.json")
}
