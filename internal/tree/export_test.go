package tree

// TopoKey exposes the search's de-duplication key to the external tests.
func TopoKey(t *Tree) string {
	var k topoKey
	return string(k.of(t))
}
