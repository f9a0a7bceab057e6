// Fixture codec for rule 7: decodeWidget is not called by any
// registered fuzz harness.
struct ByteReader;

int
decodeWidget(ByteReader &r)
{
    return 0;
}
