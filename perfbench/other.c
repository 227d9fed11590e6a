/* A different program that a stub rewriter emits: always exits 7. */
int main(void) { return 7; }
