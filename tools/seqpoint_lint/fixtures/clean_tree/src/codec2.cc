// Fixture codec for rule 7 (fuzz-coverage): decodeWidget is called
// by the registered harness, decodeInternal is pinned.
struct ByteReader;

int
decodeWidget(ByteReader &r)
{
    return 0;
}

int
decodeInternal(ByteReader &r)
{
    return 0;
}
