// Package other holds a test that uses fixture from another directory.
package other
