package classifier

// byteRank ranks every byte value by how often it occurs in JSON, 0 for
// the rarest and 255 for the most frequent: the table behind NewNeedle's
// choice of the two needle bytes the head-skip prefilter compares, as
// memchr ranks needle bytes for its memmem. It is derived from 1 MiB of
// each internal/jsongen profile, ties broken by byte value; bytes those
// profiles never emit (controls, non-ASCII) rank rarest.
// TestByteRankMatchesJsongen regenerates it and prints the literal to
// commit when a generator changes. Quote ranks 255 and 'e' 254, so a pair
// chosen from a label of two or more distinct bytes never includes a quote.
var byteRank = [256]byte{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, // 0x00
	16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, // 0x10
	245, 32, 255, 33, 34, 183, 35, 36, 37, 38, 190, 197, 248, 207, 213, 215, // 0x20
	238, 236, 235, 233, 226, 228, 224, 229, 225, 227, 249, 39, 40, 41, 42, 43, // 0x30
	44, 194, 186, 196, 208, 192, 188, 203, 193, 209, 198, 191, 187, 185, 199, 201, // 0x40
	206, 195, 204, 200, 205, 189, 202, 184, 45, 46, 47, 218, 48, 219, 49, 214, // 0x50
	50, 253, 220, 243, 239, 254, 232, 223, 234, 251, 210, 222, 246, 241, 244, 250, // 0x60
	237, 212, 247, 242, 252, 240, 221, 211, 217, 216, 51, 230, 52, 231, 53, 54, // 0x70
	55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, // 0x80
	71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85, 86, // 0x90
	87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99, 100, 101, 102, // 0xA0
	103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 116, 117, 118, // 0xB0
	119, 120, 121, 122, 123, 124, 125, 126, 127, 128, 129, 130, 131, 132, 133, 134, // 0xC0
	135, 136, 137, 138, 139, 140, 141, 142, 143, 144, 145, 146, 147, 148, 149, 150, // 0xD0
	151, 152, 153, 154, 155, 156, 157, 158, 159, 160, 161, 162, 163, 164, 165, 166, // 0xE0
	167, 168, 169, 170, 171, 172, 173, 174, 175, 176, 177, 178, 179, 180, 181, 182, // 0xF0
}
