// Fixture: EXC001 — throwing protocol call in a destructor.
struct Rank {
    void send_wire(int, unsigned long long, const void*, unsigned long);
};
struct Flusher {
    Rank& rank;
    ~Flusher() {
        rank.send_wire(0, 0, nullptr, 0);
    }
};
// The runtime's relative-rank calls reach the same rank methods.
struct Runtime {
    void send_rel(int, int, const void*, unsigned long);
};
struct Halo {
    Runtime& rt;
    ~Halo() {
        rt.send_rel(0, 0, nullptr, 0);
    }
};
